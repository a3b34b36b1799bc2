// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the simulator's layers from the
// benchmark's own code (the library itself is not instrumented). Each
// span has a name, a start, an end, the span that encloses it on the
// same lane, and numeric tags. Nothing is written until the run ends;
// write_chrome_json() then emits Chrome Trace Event JSON, which
// Perfetto and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int lane = 0;     ///< Chrome "tid": 0 = main thread, 1.. = sweep workers
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span on the main lane, nested in the innermost open one.
  int begin(const std::string& name);
  void end(int idx);
  void tag(int idx, const std::string& key, double value);

  /// Records an already finished span (sweep scenarios are reconstructed
  /// from their reported wall time).
  int add_complete(const std::string& name, double start_us, double end_us,
                   int lane, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Innermost open span on the main lane (-1 when none).
  int current() const { return open_.empty() ? -1 : open_.back(); }

  /// Seconds per span name of duration minus the union of the intervals
  /// its child spans cover (a layer's self time).
  std::map<std::string, double> self_seconds() const;

  bool write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs share the
/// traced code path at the cost of one branch per call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : t_(t), idx_(t ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void tag(const std::string& key, double value) {
    if (t_) t_->tag(idx_, key, value);
  }

 private:
  Tracer* t_;
  int idx_;
};

/// Host seconds since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
