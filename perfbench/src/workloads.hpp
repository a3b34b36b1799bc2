// The benchmark's workloads: each is one round of scenario specs, made
// from the --seed argument alone, that a run repeats until its time is
// up. See README.md for why each one was chosen and which layers it
// loads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<mango::exp::ScenarioSpec> specs;  ///< one round
  /// > 0: the round runs through exp::SweepRunner with this many jobs
  /// (the mango_sweep path, plan cache on). 0: exp::run_scenario per
  /// spec, in order, on the calling thread.
  unsigned sweep_jobs = 0;
  /// > 1: every round also runs `shard_case` on the single kernel and on
  /// this many shards, which must report equal stats (one more operation
  /// per round), and the traced run takes the shard engine's per-layer
  /// metrics from a round of `specs` on this many shards.
  unsigned check_shards = 0;
  /// The shard-invariance case: fixed, not made from --seed, so that its
  /// outcome is the same in every run (README, "Shard invariance").
  mango::exp::ScenarioSpec shard_case;
};

std::vector<std::string> workload_names();
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace perfbench
