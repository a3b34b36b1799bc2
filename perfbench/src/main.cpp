// mango_perfbench: the MANGO simulator's end-to-end and per-layer
// benchmark.
//
//   mango_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//   mango_perfbench --selftest       negative controls of every check
//   mango_perfbench --list-metrics   metric names and units
//
// --trace 0 repeats whole rounds of the workload's scenarios through
// exp::run_scenario / exp::SweepRunner until S seconds have passed, then
// replays each scenario once through the layer functions (single
// kernel) to check its properties and that both paths agree. --trace 1
// runs the layered build traced and sliced, reports the per-layer
// metrics and writes the spans to DIR as Chrome Trace Event JSON. The
// last line of standard output is the JSON result either way.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "exp/sweep.hpp"
#include "layered.hpp"
#include "metrics.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mexp = mango::exp;
using Clock = std::chrono::steady_clock;

namespace {

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries the pre-exec high-water mark of
/// the launching process (the Python wrapper) across execve.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double quantile(const std::vector<double>& samples, double q) {
  mango::sim::Histogram h;
  for (const double x : samples) h.add(x);
  return h.quantile(q);
}

/// One round of the workload through the end-to-end entry points.
struct E2eRound {
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< sum of construct_ms: plan, assembly, opens, starts
  double run_s = 0.0;    ///< sum of run_ms: the event loop and stat collection
  double busy_s = 0.0;   ///< sum of scenario wall times
  std::uint64_t events = 0;
  std::vector<mexp::ScenarioResult> results;
};

E2eRound run_e2e_round(const Workload& w, Tracer* tr) {
  E2eRound r;
  const auto t0 = Clock::now();
  if (w.sweep_jobs > 0) {
    mexp::SweepRunner runner;
    mexp::SweepRunner::ProgressFn on_done;
    std::vector<double> lane_end;
    const int parent = tr ? tr->current() : -1;
    if (tr) {
      // One span per run_scenario call, rebuilt from its wall time on
      // the first lane free at its start (calls are serialized here).
      on_done = [&](std::size_t, std::size_t, const mexp::ScenarioResult& res) {
        const double end = tr->now_us();
        const double start = end - res.wall_ms * 1e3;
        std::size_t lane = 0;
        while (lane < lane_end.size() && lane_end[lane] > start) ++lane;
        if (lane == lane_end.size()) lane_end.push_back(0.0);
        lane_end[lane] = end;
        const int idx = tr->add_complete("run_scenario", start, end,
                                         static_cast<int>(lane) + 1, parent);
        tr->tag(idx, "events", static_cast<double>(res.stats.events));
      };
    }
    mexp::SweepReport rep = runner.run(w.specs, w.sweep_jobs, on_done);
    r.results = std::move(rep.results);
  } else {
    for (const mexp::ScenarioSpec& spec : w.specs) {
      ScopedSpan s(tr, "run_scenario");
      r.results.push_back(mexp::run_scenario(spec));
    }
  }
  r.wall_s = seconds_since(t0);
  for (const mexp::ScenarioResult& res : r.results) {
    r.setup_s += res.construct_ms * 1e-3;
    r.run_s += res.run_ms * 1e-3;
    r.busy_s += res.wall_ms * 1e-3;
    r.events += res.stats.events;
  }
  return r;
}

/// The shard-invariance operation: `w.shard_case` through run_scenario on
/// the single kernel and on w.check_shards shards, which must report
/// equal stats, the event count included. Empty when they do.
std::string check_shard_case(const Workload& w) {
  mexp::ScenarioSpec spec = w.shard_case;
  spec.shards = 1;
  const mexp::ScenarioResult one = mexp::run_scenario(spec);
  spec.shards = w.check_shards;
  const mexp::ScenarioResult many = mexp::run_scenario(spec);
  if (!one.ok()) return "error: " + one.error;
  if (!many.ok()) return "error: " + many.error;
  if (one.stats == many.stats) return "";
  return std::to_string(w.check_shards) + " shards differ from 1: " +
         CoreStats::diff(CoreStats::from(many.stats), CoreStats::from(one.stats));
}

/// Runs the shard-invariance operation once if the workload has one;
/// counts it as failed and prints the first failure.
void shard_case_op(const Workload& w, std::uint64_t& attempted,
                   std::uint64_t& failed) {
  if (w.check_shards <= 1) return;
  const std::string f = check_shard_case(w);
  ++attempted;
  if (f.empty()) return;
  if (failed++ == 0) {
    std::printf("FAIL %s: %s\n", w.shard_case.name.c_str(), f.c_str());
  }
}

/// Failures of spec i in an end-to-end round: a thrown error, or stats
/// that differ from the reference observation (the layered replay).
void check_e2e(const E2eRound& r, std::size_t i, const Observation* ref,
               std::vector<std::string>& fails) {
  const mexp::ScenarioResult& res = r.results[i];
  if (!res.ok()) {
    fails.push_back("error: " + res.error);
    return;
  }
  if (ref != nullptr) {
    const std::string d = CoreStats::diff(CoreStats::from(res.stats), ref->core);
    if (!d.empty()) fails.push_back("stats differ: " + d);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricValues& values,
                  const std::vector<MetricDef>& defs) {
  std::map<std::string, std::string> units;
  for (const MetricDef& d : defs) units[d.name] = d.unit;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", values[i].first.c_str(), values[i].second,
                units[values[i].first].c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Model metrics pooled over a round's observations.
MetricValues model_metrics(const std::vector<Observation>& obs) {
  double gs_max = 0.0;
  double horizon_ns = 0.0;
  std::uint64_t gs_flits = 0;
  std::uint64_t be_pkts = 0;
  std::vector<double> be_lat;
  for (const Observation& o : obs) {
    horizon_ns += mango::sim::to_ns(o.spec.duration_ps);
    for (const GsFlow& g : o.gs) {
      gs_max = std::max(gs_max, g.max_latency_ns);
      gs_flits += g.flits;
    }
    be_pkts += o.core.be_delivered;
    be_lat.insert(be_lat.end(), o.be_latency_ns.begin(), o.be_latency_ns.end());
  }
  return {
      {"gs_latency_max_ns", gs_max},
      {"gs_throughput_flits_per_ns", static_cast<double>(gs_flits) / horizon_ns},
      {"be_latency_p99_ns", quantile(be_lat, 0.99)},
      {"be_throughput_pkts_per_ns", static_cast<double>(be_pkts) / horizon_ns},
  };
}

void report_failures(const std::vector<std::vector<std::string>>& fails,
                     const Workload& w) {
  for (std::size_t i = 0; i < fails.size(); ++i) {
    for (const std::string& f : fails[i]) {
      std::printf("FAIL %s: %s\n", w.specs[i].name.c_str(), f.c_str());
    }
  }
}

// --- untraced run: the end-to-end metrics -----------------------------------

int run_timed(const Workload& w, double seconds) {
  const auto t0 = Clock::now();
  std::vector<E2eRound> rounds;
  std::uint64_t shard_attempted = 0, shard_failed = 0;
  do {
    rounds.push_back(run_e2e_round(w, nullptr));
    shard_case_op(w, shard_attempted, shard_failed);  // untimed
  } while (seconds_since(t0) < seconds);
  const double rss = peak_rss_mb();

  // Checks: replay every scenario once on the single kernel; it must
  // report the end-to-end stats exactly and pass every property check.
  const std::size_t n = w.specs.size();
  std::vector<Observation> obs;
  std::vector<std::vector<std::string>> spec_fails(n);
  std::vector<bool> checks_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    mexp::ScenarioSpec spec = w.specs[i];
    spec.shards = 1;
    obs.push_back(run_layered(spec, LayeredOptions{}));
    spec_fails[i] = check_properties(obs.back());
    checks_ok[i] = spec_fails[i].empty();
  }
  // Round 0 must match the replay, every later round must repeat round 0.
  std::uint64_t failed = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::string> f;
      if (r == 0 || !rounds[r].results[i].ok()) {
        check_e2e(rounds[r], i, r == 0 ? &obs[i] : nullptr, f);
      } else if (rounds[r].results[i].stats != rounds[0].results[i].stats) {
        f.push_back("stats differ from round 0: " +
                    CoreStats::diff(CoreStats::from(rounds[r].results[i].stats),
                                    CoreStats::from(rounds[0].results[i].stats)));
      }
      if (!f.empty() || !checks_ok[i]) ++failed;
      if (!f.empty()) {
        spec_fails[i].push_back("round " + std::to_string(r) + ": " + f[0]);
      }
    }
  }
  report_failures(spec_fails, w);

  double wall = 0.0, setup = 0.0, run = 0.0;
  std::uint64_t events = 0;
  for (const E2eRound& r : rounds) {
    wall += r.wall_s;
    setup += r.setup_s;
    run += r.run_s;
    events += r.events;
  }
  const double nr = static_cast<double>(rounds.size());
  MetricValues m = {
      {"wall_s", wall / nr},
      {"setup_s", setup / nr},
      {"events_per_s", static_cast<double>(events) / run},
      {"peak_rss_mb", rss},
  };
  for (const auto& kv : model_metrics(obs)) m.push_back(kv);
  std::printf("%s: %zu rounds of %zu scenarios in %.2f s\n", w.name.c_str(),
              rounds.size(), n, seconds_since(t0));
  for (const auto& [k, v] : m) std::printf("  %-28s %.6g\n", k.c_str(), v);
  // `correct` speaks of the seeded scenarios; the shard-invariance case
  // counts in `failed` only (it fails on a known engine fault).
  print_result(failed == 0, rounds.size() * n + shard_attempted,
               failed + shard_failed, m, end_to_end_metrics());
  return 0;
}

// --- traced run: the per-layer metrics --------------------------------------

/// Per-layer metrics of one traced round.
std::map<std::string, double> layer_metrics(const std::vector<Observation>& obs,
                           const std::map<std::string, PlanProbe>& probes) {
  double run_s = 0, plan_s = 0, rt_s = 0, cdg_s = 0, asm_s = 0, open_s = 0,
         start_s = 0, collect_s = 0, slice_max = 0, arena = 0, peak_util = 0,
         min_rate = -1, max_lat = 0, bisect = 0;
  std::uint64_t events = 0, win = 0, elided = 0, edges = 0, builds = 0,
                hits = 0, opened = 0, req = 0, ready = 0, rej = 0, closed = 0,
                retries = 0, hops = 0, gs_flits = 0, be_gen = 0, be_del = 0,
                held = 0, sources = 0, samples = 0;
  std::vector<double> setup, teardown, be_lat;
  for (const Observation& o : obs) {
    const double horizon_ns = mango::sim::to_ns(o.spec.duration_ps);
    run_s += o.t.run_s;
    plan_s += o.t.plan_s;
    asm_s += o.t.assemble_s;
    open_s += o.t.open_static_s;
    start_s += o.t.start_s;
    collect_s += o.t.collect_s;
    slice_max = std::max(slice_max, o.slice_ns_per_event_max);
    arena = std::max(arena, o.arena_mb);
    peak_util = std::max(peak_util, o.core.peak_link_utilization);
    events += o.core.events;
    win += o.windows_run;
    elided += o.windows_elided;
    if (o.plan_hit) {
      ++hits;
    } else {
      ++builds;
      edges += o.cdg_edges;
      rt_s += probes.at(o.plan_key).route_table_s;
      cdg_s += probes.at(o.plan_key).cdg_s;
    }
    opened += o.static_opened;
    req += o.core.churn_requested;
    ready += o.core.churn_ready;
    rej += o.core.churn_rejected;
    closed += o.core.churn_closed;
    retries += o.broker_retries;
    setup.insert(setup.end(), o.setup_ns.begin(), o.setup_ns.end());
    teardown.insert(teardown.end(), o.teardown_ns.begin(), o.teardown_ns.end());
    hops += o.core.link_flits;
    for (const GsFlow& g : o.gs) {
      gs_flits += g.flits;
      if (!g.churn) {
        const double r =
            static_cast<double>(g.flits) / horizon_ns / guaranteed_rate(o, g);
        min_rate = min_rate < 0 ? r : std::min(min_rate, r);
      }
      max_lat = std::max(max_lat, g.max_latency_ns /
                                      latency_bound_ns(o, arbiter_hops(o, g)));
    }
    be_gen += o.core.be_generated;
    be_del += o.core.be_delivered;
    held += o.core.be_held;
    be_lat.insert(be_lat.end(), o.be_latency_ns.begin(), o.be_latency_ns.end());
    const double bound = bisection_bound_pkts_per_ns(o);
    if (bound > 0) {
      bisect = std::max(bisect,
                        static_cast<double>(o.core.be_delivered) / horizon_ns / bound);
    }
    sources += o.sources;
    samples += o.latency_samples;
  }
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  return std::map<std::string, double>{
      {"sim.events", d(events)},
      {"sim.run_s", run_s},
      {"sim.ns_per_event", events ? run_s * 1e9 / d(events) : 0.0},
      {"sim.slice_ns_per_event_max", slice_max},
      {"parallel.windows_run", d(win)},
      {"parallel.windows_elided", d(elided)},
      {"parallel.elided_share", win + elided ? d(elided) / d(win + elided) : 0.0},
      {"parallel.ns_per_window", win ? run_s * 1e9 / d(win) : 0.0},
      {"plan.build_s", plan_s},
      {"plan.route_table_s", rt_s},
      {"plan.cdg_s", cdg_s},
      {"plan.cdg_edges", d(edges)},
      {"plan.builds", d(builds)},
      {"plan.hits", d(hits)},
      {"network.assemble_s", asm_s},
      {"network.arena_mb", arena},
      {"conn.open_static_s", open_s},
      {"conn.static_opened", d(opened)},
      {"broker.requested", d(req)},
      {"broker.ready", d(ready)},
      {"broker.rejected", d(rej)},
      {"broker.closed", d(closed)},
      {"broker.retries", d(retries)},
      {"broker.ready_share", req ? d(ready) / d(req) : 0.0},
      {"broker.setup_p99_ns", quantile(setup, 0.99)},
      {"broker.teardown_p99_ns", quantile(teardown, 0.99)},
      {"link.flit_hops", d(hops)},
      {"link.peak_utilization", peak_util},
      {"link.host_ns_per_flit_hop", hops ? run_s * 1e9 / d(hops) : 0.0},
      {"gs.flits_delivered", d(gs_flits)},
      {"gs.min_rate_over_guarantee", std::max(0.0, min_rate)},
      {"gs.max_latency_over_bound", max_lat},
      {"be.packets_generated", d(be_gen)},
      {"be.packets_delivered", d(be_del)},
      {"be.injections_held", d(held)},
      {"be.latency_p50_ns", quantile(be_lat, 0.5)},
      {"be.throughput_over_bisection_bound", bisect},
      {"traffic.start_s", start_s},
      {"traffic.sources", d(sources)},
      {"report.collect_s", collect_s},
      {"report.latency_samples", d(samples)},
  };
}

struct LayeredRound {
  std::vector<Observation> obs;
  double wall_s = 0.0;
};

LayeredRound run_layered_round(const Workload& w, Tracer* tr, unsigned slices,
                               const std::function<void(mexp::ScenarioSpec&)>&
                                   adjust = {}) {
  LayeredRound r;
  mango::noc::FabricPlanCache cache;  // fresh per round, like one sweep
  LayeredOptions opt;
  opt.tracer = tr;
  opt.slices = slices;
  opt.cache = w.sweep_jobs > 0 ? &cache : nullptr;
  ScopedSpan round(tr, "layered round");
  const auto t0 = Clock::now();
  for (mexp::ScenarioSpec spec : w.specs) {
    if (adjust) adjust(spec);
    r.obs.push_back(run_layered(spec, opt));
  }
  r.wall_s = seconds_since(t0);
  return r;
}

int run_traced(const Workload& w, double seconds, const std::string& out_dir,
               std::uint64_t seed) {
  constexpr unsigned kSlices = 16;
  Tracer tr;
  const std::size_t n = w.specs.size();
  std::vector<std::vector<std::string>> fails(n);
  const auto compare = [&](const std::vector<Observation>& obs,
                           const std::vector<CoreStats>& ref,
                           const std::string& what) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string d = CoreStats::diff(obs[i].core, ref[i]);
      if (!d.empty()) fails[i].push_back(what + " differs: " + d);
    }
  };

  // The end-to-end reference (untimed here); for sweep-small it also
  // yields one span per run_scenario call.
  E2eRound e2e;
  {
    ScopedSpan s(&tr, "end-to-end round");
    e2e = run_e2e_round(w, &tr);
  }
  std::vector<CoreStats> ref;
  for (std::size_t i = 0; i < n; ++i) {
    check_e2e(e2e, i, nullptr, fails[i]);
    ref.push_back(CoreStats::from(e2e.results[i].stats));
  }

  // Stand-alone route-table and CDG timings, once per distinct fabric.
  std::map<std::string, PlanProbe> probes;
  for (const mexp::ScenarioSpec& s : w.specs) {
    const std::string key =
        mango::noc::fabric_plan_key(s.topology_spec(), s.router.be_vcs);
    if (!probes.count(key)) probes[key] = probe_plan(s, &tr);
  }

  // Untraced one-shot vs traced sliced layered rounds, in pairs.
  const auto t0 = Clock::now();
  std::vector<std::map<std::string, double>> per_round;
  std::vector<Observation> first_traced;
  double untraced_wall = 0.0, traced_wall = 0.0;
  std::uint64_t pairs = 0, shard_attempted = 0, shard_failed = 0;
  do {
    shard_case_op(w, shard_attempted, shard_failed);
    LayeredRound u = run_layered_round(w, nullptr, 1);
    compare(u.obs, ref, "untraced layered run");
    LayeredRound t = run_layered_round(w, &tr, kSlices);
    compare(t.obs, ref, "traced sliced run");
    untraced_wall += u.wall_s;
    traced_wall += t.wall_s;
    per_round.push_back(layer_metrics(t.obs, probes));
    if (pairs == 0) first_traced = std::move(t.obs);
    ++pairs;
  } while (seconds_since(t0) < seconds);

  // The shard engine: one traced, sliced round on check_shards shards.
  // Its windows and run seconds give the parallel.* metrics, its speed-up
  // is over the first traced round. Its stats are not compared: whether
  // the engine diverges depends on the seed, so shard invariance is
  // checked on the fixed shard case instead.
  std::map<std::string, double> shard_lm;
  if (w.check_shards > 1) {
    LayeredRound sh = run_layered_round(
        w, &tr, kSlices,
        [&w](mexp::ScenarioSpec& s) { s.shards = w.check_shards; });
    shard_lm = layer_metrics(sh.obs, probes);
    shard_lm["parallel.speedup_vs_1"] =
        per_round.front().at("sim.run_s") / shard_lm.at("sim.run_s");
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& f : check_properties(first_traced[i])) {
      fails[i].push_back(f);
    }
  }
  report_failures(fails, w);
  std::uint64_t failed_specs = 0;
  for (const auto& f : fails) failed_specs += f.empty() ? 0 : 1;

  // Per-layer metrics: counts are identical in every traced round;
  // host times are averaged over them.
  std::map<std::string, double> lm = per_round.front();
  for (auto& [name, v] : lm) {
    if (name.size() < 2 || name.compare(name.size() - 2, 2, "_s") != 0) continue;
    double sum = 0.0;
    for (const auto& r : per_round) sum += r.at(name);
    v = sum / static_cast<double>(per_round.size());
  }
  const double p = static_cast<double>(pairs);
  lm["parallel.speedup_vs_1"] = 0.0;
  for (const auto& [name, v] : shard_lm) {
    if (name.compare(0, 9, "parallel.") == 0) lm[name] = v;
  }
  lm["sweep.scenarios"] = static_cast<double>(n);
  lm["sweep.construct_s"] = e2e.setup_s;
  lm["sweep.run_s"] = e2e.run_s;
  lm["sweep.worker_busy_share"] =
      e2e.busy_s / (std::max(1u, w.sweep_jobs) * e2e.wall_s);
  lm["trace.overhead_s"] = traced_wall / p - untraced_wall / p;
  MetricValues m;
  for (const MetricDef& d : per_layer_metrics()) m.push_back({d.name, lm.at(d.name)});

  // Outputs: the trace, and the per-layer table with self times.
  const std::string stem = out_dir + "/" + w.name + "-s" + std::to_string(seed);
  const std::string trace_path = stem + ".trace.json";
  const bool wrote = tr.write_chrome_json(trace_path);
  std::string table = "# " + w.name + " seed " + std::to_string(seed) +
                      " (traced, " + std::to_string(pairs) +
                      " round pairs, " + std::to_string(kSlices) +
                      " slices)\n\n| metric | value | unit |\n|---|---|---|\n";
  std::map<std::string, std::string> units;
  for (const MetricDef& d : per_layer_metrics()) units[d.name] = d.unit;
  char buf[256];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "| %s | %.6g | %s |\n", k.c_str(), v,
                  units[k].c_str());
    table += buf;
  }
  table += "\n| span | self s |\n|---|---|\n";
  for (const auto& [name, s] : tr.self_seconds()) {
    std::snprintf(buf, sizeof buf, "| %s | %.6f |\n", name.c_str(), s);
    table += buf;
  }
  std::printf("%s\n", table.c_str());
  if (std::FILE* f = std::fopen((stem + ".layers.md").c_str(), "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::printf("trace: %s%s\n", trace_path.c_str(), wrote ? "" : " (write failed)");
  print_result(failed_specs == 0, pairs * n + shard_attempted,
               pairs * failed_specs + shard_failed, m, per_layer_metrics());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mango_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       mango_perfbench --selftest | --list-metrics\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return run_selftest();
    if (a == "--list-metrics") {
      for (const MetricDef& d : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : per_layer_metrics()) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (!has_value) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  const std::optional<Workload> w = make_workload(workload, seed);
  if (!w || seconds <= 0) return usage();
  return trace ? run_traced(*w, seconds, out_dir, seed) : run_timed(*w, seconds);
}
