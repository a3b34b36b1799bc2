// Metric names and units the benchmark reports: the end-to-end set
// (untraced runs) and the per-layer set (traced runs). BENCHMARK.json
// lists the same names; `mango_perfbench --list-metrics` prints them so
// the two can be compared.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"events_per_s", "events/s"},
      {"peak_rss_mb", "MB"},
      {"gs_latency_max_ns", "ns"},
      {"gs_throughput_flits_per_ns", "flits/ns"},
      {"be_latency_p99_ns", "ns"},
      {"be_throughput_pkts_per_ns", "pkts/ns"},
  };
  return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // sim kernel
      {"sim.events", "count"},
      {"sim.run_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"sim.slice_ns_per_event_max", "ns"},
      // sim/parallel shard engine
      {"parallel.windows_run", "count"},
      {"parallel.windows_elided", "count"},
      {"parallel.elided_share", "ratio"},
      {"parallel.ns_per_window", "ns"},
      {"parallel.speedup_vs_1", "ratio"},
      // noc/network construction
      {"plan.build_s", "s"},
      {"plan.route_table_s", "s"},
      {"plan.cdg_s", "s"},
      {"plan.cdg_edges", "count"},
      {"plan.builds", "count"},
      {"plan.hits", "count"},
      {"network.assemble_s", "s"},
      {"network.arena_mb", "MB"},
      // noc/network connections
      {"conn.open_static_s", "s"},
      {"conn.static_opened", "count"},
      {"broker.requested", "count"},
      {"broker.ready", "count"},
      {"broker.rejected", "count"},
      {"broker.closed", "count"},
      {"broker.retries", "count"},
      {"broker.ready_share", "ratio"},
      {"broker.setup_p99_ns", "ns"},
      {"broker.teardown_p99_ns", "ns"},
      // noc/link
      {"link.flit_hops", "count"},
      {"link.peak_utilization", "ratio"},
      {"link.host_ns_per_flit_hop", "ns"},
      // noc/router GS path
      {"gs.flits_delivered", "count"},
      {"gs.min_rate_over_guarantee", "ratio"},
      {"gs.max_latency_over_bound", "ratio"},
      // noc/router BE router + noc/na
      {"be.packets_generated", "count"},
      {"be.packets_delivered", "count"},
      {"be.injections_held", "count"},
      {"be.latency_p50_ns", "ns"},
      {"be.throughput_over_bisection_bound", "ratio"},
      // noc/traffic
      {"traffic.start_s", "s"},
      {"traffic.sources", "count"},
      // report
      {"report.collect_s", "s"},
      {"report.latency_samples", "count"},
      // exp sweep
      {"sweep.scenarios", "count"},
      {"sweep.construct_s", "s"},
      {"sweep.run_s", "s"},
      {"sweep.worker_busy_share", "ratio"},
      // tracing
      {"trace.overhead_s", "s"},
  };
  return defs;
}

/// Metric values in report order.
using MetricValues = std::vector<std::pair<std::string, double>>;

}  // namespace perfbench
