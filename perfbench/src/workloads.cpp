#include "workloads.hpp"

namespace perfbench {

namespace mexp = mango::exp;
namespace noc = mango::noc;

namespace {

/// 32x32 mesh, uniform BE at ~70% of the delivered-throughput knee
/// (150 ns per node offers 6.8 pkts/ns; the mesh tops out near 9.1) and
/// a GS ring paced at 16 ns, just under the 1/V share of a 515 MHz link
/// (0.0644 flits/ns at V = 8). The 1.5 us horizon keeps the 31-hop row
/// wrap connections' pipeline fill under a tenth of the horizon.
mexp::ScenarioSpec mesh32(std::uint64_t seed) {
  mexp::ScenarioSpec s;
  s.topology = noc::TopologyKind::kMesh;
  s.width = s.height = 32;
  s.pattern = noc::BePattern::kUniform;
  s.be_interarrival_ps = 150000;
  s.payload_words = 4;
  s.gs_set = noc::GsSetKind::kRing;
  s.gs_period_ps = 16000;
  s.duration_ps = 1500000;
  s.seed = seed;
  s.name = "be-mesh32-s" + std::to_string(seed);
  return s;
}

/// be-mesh32's traffic shape scaled to an 8x8 mesh near its BE knee
/// (20 ns per node), at a fixed seed. The shard engine diverges from the
/// single kernel on this case (README, "Shard invariance").
mexp::ScenarioSpec shard_case() {
  mexp::ScenarioSpec s;
  s.topology = noc::TopologyKind::kMesh;
  s.width = s.height = 8;
  s.pattern = noc::BePattern::kUniform;
  s.be_interarrival_ps = 20000;
  s.payload_words = 4;
  s.gs_set = noc::GsSetKind::kRing;
  s.gs_period_ps = 16000;
  s.duration_ps = 1500000;
  s.seed = 2;
  s.name = "shard-case-mesh8-s2";
  return s;
}

/// 8x8 meshes with a paced static GS ring, light uniform BE and runtime
/// churn at two request rates: 100 ns (most opens reach Ready without
/// queueing) and 50 ns (the broker queue and its retries are used).
std::vector<mexp::ScenarioSpec> churn8(std::uint64_t seed) {
  std::vector<mexp::ScenarioSpec> specs;
  for (const mango::sim::Time churn_ia : {100000, 50000}) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      mexp::ScenarioSpec s;
      s.width = s.height = 8;
      s.pattern = noc::BePattern::kUniform;
      s.be_interarrival_ps = 96000;
      s.gs_set = noc::GsSetKind::kRing;
      s.gs_period_ps = 16000;
      s.churn_interarrival_ps = churn_ia;
      s.churn_hold_ps = 400000;
      s.churn_gs_period_ps = 16000;
      s.churn_queue = 8;
      s.duration_ps = 4000000;
      s.seed = seed * 16 + specs.size();
      s.name = "churn-mesh8-ch" + std::to_string(churn_ia) + "-s" +
               std::to_string(s.seed);
      specs.push_back(s);
    }
  }
  return specs;
}

/// Many short scenarios in the shape of the repo's presets: every fabric
/// kind from 16 to 64 nodes (ring and graph at 16 only, so every GS
/// route fills within a tenth of the 1 us horizon), two patterns, two
/// rates, two GS sets, two seeds.
std::vector<mexp::ScenarioSpec> sweep_small(std::uint64_t seed) {
  struct Fabric {
    noc::TopologyKind kind;
    std::uint16_t w, h, conc;
  };
  const Fabric fabrics[] = {
      {noc::TopologyKind::kMesh, 4, 4, 1},  {noc::TopologyKind::kMesh, 8, 8, 1},
      {noc::TopologyKind::kTorus, 4, 4, 1}, {noc::TopologyKind::kTorus, 8, 8, 1},
      {noc::TopologyKind::kRing, 4, 4, 1},  {noc::TopologyKind::kGraph, 4, 4, 1},
      {noc::TopologyKind::kCMesh, 4, 4, 4},
  };
  std::vector<mexp::ScenarioSpec> specs;
  for (const Fabric& f : fabrics) {
    for (const noc::BePattern p :
         {noc::BePattern::kUniform, noc::BePattern::kBitComplement}) {
      // Per-core rates; cmesh routers carry 4 cores, so they run slower.
      const mango::sim::Time rates[2] = {f.conc > 1 ? 16000u : 8000u,
                                         f.conc > 1 ? 48000u : 24000u};
      for (const mango::sim::Time ia : rates) {
        for (const noc::GsSetKind g :
             {noc::GsSetKind::kRing, noc::GsSetKind::kRandomPairs}) {
          for (std::uint64_t k = 0; k < 2; ++k) {
            mexp::ScenarioSpec s;
            s.topology = f.kind;
            s.width = f.w;
            s.height = f.h;
            s.concentration = f.conc;
            s.router.be_vcs = 2;  // dateline classes for torus and ring
            s.pattern = p;
            s.be_interarrival_ps = ia;
            s.gs_set = g;
            s.gs_period_ps = 16000;
            s.duration_ps = 1000000;
            s.seed = seed * 2 + k;
            s.gs_opt.seed = s.seed;
            s.name = std::string(noc::to_string(p)) + "-" +
                     s.topology_spec().label() + "-ia" + std::to_string(ia) +
                     "-gs:" + noc::to_string(g) + "-s" + std::to_string(s.seed);
            specs.push_back(s);
          }
        }
      }
    }
  }
  return specs;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"be-mesh32", "gs-churn-mesh8", "sweep-small"};
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "be-mesh32") {
    w.specs = {mesh32(seed)};
    w.check_shards = 2;
    w.shard_case = shard_case();
  } else if (name == "gs-churn-mesh8") {
    w.specs = churn8(seed);
  } else if (name == "sweep-small") {
    w.specs = sweep_small(seed);
    w.sweep_jobs = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench
