// SimContext: the per-simulation service bundle.
//
// One simulated network needs exactly one event kernel, one root RNG,
// one stats registry and its object pools. Before SimContext these
// traveled as ad-hoc constructor arguments (every component took
// Simulator&, traffic sources seeded their own RNGs, stats lived wherever
// a bench put them); now a single context object is threaded through
// Network -> Router/NA/Link -> traffic, and any component can reach every
// service from it. Two SimContexts never share state — each owns its
// kernel, RNG, stats and pools, and the simulation layer has no
// process-wide mutable state — so independent simulations can run side
// by side in one process (sweep workers, A/B corners).
#pragma once

#include <cstdint>

#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace mango::sim {

class SimContext {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

  explicit SimContext(std::uint64_t seed = kDefaultSeed)
      : seed_(seed), rng_(seed) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// Root RNG. Components needing reproducible private streams should
  /// derive one: Rng(ctx.rng().next_u64()) or Rng(ctx.seed() ^ salt).
  Rng& rng() { return rng_; }

  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }

  /// Per-context object pools (packet/flit storage recycling). Resolve
  /// the typed pool once at wiring time: ctx.pools().vectors<Flit>().
  PoolRegistry& pools() { return pools_; }

  std::uint64_t seed() const { return seed_; }

  // --- kernel conveniences (the common calls, without .sim()) ---
  Time now() const { return sim_.now(); }
  std::uint64_t run() { return sim_.run(); }
  std::uint64_t run_until(Time t_end) { return sim_.run_until(t_end); }

 private:
  std::uint64_t seed_;
  Simulator sim_;
  Rng rng_;
  StatsRegistry stats_;
  PoolRegistry pools_;
};

}  // namespace mango::sim
