// Builds and runs one scenario through the simulator's public layer
// functions — the same calls, in the same order, that exp::run_scenario
// makes — so that each layer boundary can be timed (and traced) and the
// per-connection observations the property checks need can be read
// from the measurement hubs. The end-to-end metrics never come from
// here: they are timed on exp::run_scenario / exp::SweepRunner, and the
// stats of both paths are compared exactly.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "noc/common/ids.hpp"
#include "noc/network/fabric_plan.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The simulated stats both the end-to-end path (ScenarioStats) and the
/// layered replay report, field for field. Comparisons between two
/// end-to-end results use ScenarioStats' own operator== instead.
struct CoreStats {
  std::uint64_t events = 0;
  std::uint64_t be_generated = 0;
  std::uint64_t be_delivered = 0;
  std::uint64_t be_held = 0;
  std::uint64_t gs_generated = 0;  ///< static connection set
  std::uint64_t gs_delivered = 0;
  std::uint64_t churn_requested = 0;
  std::uint64_t churn_ready = 0;
  std::uint64_t churn_closed = 0;
  std::uint64_t churn_rejected = 0;
  std::uint64_t churn_generated = 0;
  std::uint64_t churn_delivered = 0;
  std::uint64_t link_flits = 0;
  double be_latency_p99_ns = 0.0;
  double gs_latency_max_ns = 0.0;  ///< static connection set
  double peak_link_utilization = 0.0;

  static CoreStats from(const mango::exp::ScenarioStats& s);
  /// Empty when equal; otherwise one "field: a != b" line per mismatch.
  static std::string diff(const CoreStats& a, const CoreStats& b);
};

/// One delivered GS flow (a static connection, or a churn stream).
struct GsFlow {
  std::uint32_t tag = 0;
  bool churn = false;
  std::uint64_t src_idx = 0;  ///< node indices (static connections only)
  std::uint64_t dst_idx = 0;
  std::uint64_t generated = 0;  ///< static connections only
  std::uint64_t flits = 0;
  std::uint64_t seq_errors = 0;
  std::uint64_t next_seq = 0;  ///< one past the last delivered sequence number
  double max_latency_ns = 0.0;
  mango::sim::Time period_ps = 0;
};

struct BeFlow {
  std::uint32_t tag = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
};

/// Host seconds per layer call of one scenario.
struct LayerTimes {
  double plan_s = 0.0;        ///< FabricPlan::build / cache fetch
  double assemble_s = 0.0;    ///< Network constructor
  double open_static_s = 0.0; ///< open_gs_set
  double start_s = 0.0;       ///< source and churn starts
  double run_s = 0.0;         ///< Network::run_until slices
  double collect_s = 0.0;     ///< hub reads + NetworkReport::collect
};

struct Observation {
  mango::exp::ScenarioSpec spec;
  CoreStats core;
  std::vector<mango::noc::NodeId> nodes;  ///< index order
  std::vector<GsFlow> gs;                  ///< static first, then churn
  std::vector<BeFlow> be;
  std::vector<double> be_latency_ns;       ///< every delivered BE packet
  std::uint64_t static_opened = 0;
  std::uint64_t churn_generated_counter = 0;  ///< global counter - static

  // Broker ledger (churn scenarios only).
  bool churn = false;
  std::array<std::uint64_t, 7> request_states{};  ///< by RequestState
  std::uint64_t broker_admitted = 0;
  std::uint64_t broker_retries = 0;
  std::vector<double> setup_ns;
  std::vector<double> teardown_ns;

  // Layer counters.
  LayerTimes t;
  std::uint64_t windows_run = 0;
  std::uint64_t windows_elided = 0;
  double slice_ns_per_event_max = 0.0;
  bool plan_hit = false;
  std::string plan_key;
  std::uint64_t cdg_edges = 0;
  double arena_mb = 0.0;
  std::uint64_t sources = 0;
  std::uint64_t latency_samples = 0;
};

struct LayeredOptions {
  Tracer* tracer = nullptr;  ///< null: untraced
  unsigned slices = 1;       ///< run_until calls the horizon is cut into
  /// Plan source: a shared cache (the SweepRunner path) or, when null, a
  /// cold FabricPlan::build per scenario (the run_scenario path).
  mango::noc::FabricPlanCache* cache = nullptr;
};

Observation run_layered(const mango::exp::ScenarioSpec& spec,
                        const LayeredOptions& opt);

/// Times a stand-alone RouteTable build and CDG check of `spec`'s fabric
/// (the two dominant phases inside FabricPlan::build).
struct PlanProbe {
  double route_table_s = 0.0;
  double cdg_s = 0.0;
};
PlanProbe probe_plan(const mango::exp::ScenarioSpec& spec, Tracer* tracer);

}  // namespace perfbench
