#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = current();
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int idx) {
  spans_[idx].end_us = now_us();
  // Spans close in LIFO order (ScopedSpan); tolerate out-of-order ends.
  const auto it = std::find(open_.rbegin(), open_.rend(), idx);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::tag(int idx, const std::string& key, double value) {
  spans_[idx].args.emplace_back(key, value);
}

int Tracer::add_complete(const std::string& name, double start_us,
                         double end_us, int lane, int parent) {
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.lane = lane;
  s.parent = parent;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals (sweep workers overlap).
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double dur = spans_[i].end_us - spans_[i].start_us;
    out[spans_[i].name] += std::max(0.0, dur - covered) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.lane, s.start_us,
                 s.end_us - s.start_us, i, s.parent);
    for (const auto& [k, v] : s.args) {
      std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
