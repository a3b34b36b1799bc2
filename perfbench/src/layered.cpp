#include "layered.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/network/routing.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"
#include "sim/stats.hpp"

namespace perfbench {

namespace noc = mango::noc;
namespace sim = mango::sim;
using Clock = std::chrono::steady_clock;

CoreStats CoreStats::from(const mango::exp::ScenarioStats& s) {
  CoreStats c;
  c.events = s.events;
  c.be_generated = s.be_packets_generated;
  c.be_delivered = s.be_packets_delivered;
  c.be_held = s.be_injections_held;
  c.gs_generated = s.gs_flits_generated;
  c.gs_delivered = s.gs_flits_delivered;
  c.churn_requested = s.churn_requested;
  c.churn_ready = s.churn_ready;
  c.churn_closed = s.churn_closed;
  c.churn_rejected = s.churn_rejected;
  c.churn_generated = s.churn_flits_generated;
  c.churn_delivered = s.churn_flits_delivered;
  c.link_flits = s.total_flits_on_links;
  c.be_latency_p99_ns = s.be_latency_p99_ns;
  c.gs_latency_max_ns = s.gs_latency_max_ns;
  c.peak_link_utilization = s.peak_link_utilization;
  return c;
}

std::string CoreStats::diff(const CoreStats& a, const CoreStats& b) {
  std::ostringstream out;
  const auto cmp = [&out](const char* name, auto x, auto y) {
    if (x != y) out << name << ": " << x << " != " << y << "; ";
  };
  cmp("events", a.events, b.events);
  cmp("be_generated", a.be_generated, b.be_generated);
  cmp("be_delivered", a.be_delivered, b.be_delivered);
  cmp("be_held", a.be_held, b.be_held);
  cmp("gs_generated", a.gs_generated, b.gs_generated);
  cmp("gs_delivered", a.gs_delivered, b.gs_delivered);
  cmp("churn_requested", a.churn_requested, b.churn_requested);
  cmp("churn_ready", a.churn_ready, b.churn_ready);
  cmp("churn_closed", a.churn_closed, b.churn_closed);
  cmp("churn_rejected", a.churn_rejected, b.churn_rejected);
  cmp("churn_generated", a.churn_generated, b.churn_generated);
  cmp("churn_delivered", a.churn_delivered, b.churn_delivered);
  cmp("link_flits", a.link_flits, b.link_flits);
  cmp("be_latency_p99_ns", a.be_latency_p99_ns, b.be_latency_p99_ns);
  cmp("gs_latency_max_ns", a.gs_latency_max_ns, b.gs_latency_max_ns);
  cmp("peak_link_utilization", a.peak_link_utilization,
      b.peak_link_utilization);
  return out.str();
}

namespace {

std::uint64_t sum_counter(noc::Network& net, const std::string& name) {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < net.shard_count(); ++s) {
    n += net.shard_ctx(s).stats().counter_value(name);
  }
  return n;
}

/// One past the last delivered sequence number of a GS flow (a GS flow
/// is delivered at one NA, so exactly one shard hub holds it).
std::uint64_t next_seq(const noc::HubSet& hub, std::uint32_t tag) {
  for (unsigned s = 0; s < hub.size(); ++s) {
    if (const noc::FlowStats* f = hub.shard(s).find_flow(tag)) {
      return f->next_seq;
    }
  }
  return 0;
}

GsFlow read_gs_flow(const noc::HubSet& hub, std::uint32_t tag,
                    std::vector<double>& scratch, std::uint64_t& samples) {
  GsFlow g;
  g.tag = tag;
  g.flits = hub.flow_flits(tag);
  g.seq_errors = hub.flow_seq_errors(tag);
  g.next_seq = next_seq(hub, tag);
  scratch.clear();
  hub.append_latency_samples(tag, scratch);
  samples += scratch.size();
  for (const double s : scratch) g.max_latency_ns = std::max(g.max_latency_ns, s);
  return g;
}

}  // namespace

Observation run_layered(const mango::exp::ScenarioSpec& spec,
                        const LayeredOptions& opt) {
  Tracer* const tr = opt.tracer;
  ScopedSpan scn(tr, "scenario");
  Observation o;
  o.spec = spec;

  sim::SimContext ctx(spec.seed);
  noc::NetworkConfig cfg;
  cfg.topology = spec.topology_spec();
  cfg.router = spec.router;
  cfg.shards = spec.shards;
  cfg.elide_windows = spec.elide_windows;
  cfg.batched_handoff = spec.batched_handoff;
  cfg.spin_us = spec.spin_us;
  cfg.force_spin = spec.force_spin;

  auto t0 = Clock::now();
  {
    if (opt.cache != nullptr) {
      ScopedSpan s(tr, "FabricPlanCache::get_or_build");
      const auto fetch =
          opt.cache->get_or_build(cfg.topology, spec.router.be_vcs, 1);
      cfg.plan = fetch.plan;
      o.plan_hit = fetch.hit;
      s.tag("hit", fetch.hit ? 1 : 0);
    } else {
      ScopedSpan s(tr, "FabricPlan::build");
      cfg.plan = noc::FabricPlan::build(cfg.topology, spec.router.be_vcs, 1);
    }
  }
  o.t.plan_s = seconds_since(t0);
  o.plan_key = cfg.plan->key();
  o.cdg_edges = cfg.plan->deadlock_certificate().edges;

  t0 = Clock::now();
  std::unique_ptr<noc::Network> net_owner;
  {
    ScopedSpan s(tr, "Network::Network");
    net_owner = std::make_unique<noc::Network>(ctx, cfg);
  }
  noc::Network& net = *net_owner;
  o.t.assemble_s = seconds_since(t0);
  o.arena_mb = static_cast<double>(net.arena_bytes()) / (1024.0 * 1024.0);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    o.nodes.push_back(net.node_at(i));
  }

  noc::HubSet hub(net.shard_count());
  hub.set_horizon(spec.duration_ps);
  noc::attach_hub(net, hub);
  noc::ConnectionManager mgr(net, net.node_at(0));

  t0 = Clock::now();
  std::vector<noc::GsSetEndpoint> gs_eps;
  {
    ScopedSpan s(tr, "open_gs_set");
    gs_eps = noc::open_gs_set(net, mgr, spec.gs_set, spec.gs_opt);
    s.tag("opened", static_cast<double>(gs_eps.size()));
  }
  o.t.open_static_s = seconds_since(t0);
  o.static_opened = gs_eps.size();

  t0 = Clock::now();
  std::vector<std::unique_ptr<noc::GsStreamSource>> gs_sources;
  std::vector<std::unique_ptr<noc::BeTrafficSource>> be_sources;
  std::unique_ptr<noc::ConnectionBroker> broker;
  std::unique_ptr<noc::ChurnWorkload> churn;
  {
    ScopedSpan s(tr, "start_gs_set");
    noc::GsStreamSource::Options gs_opt;
    gs_opt.period_ps = spec.gs_period_ps;
    gs_sources = noc::start_gs_set(net, gs_eps, gs_opt);
  }
  {
    ScopedSpan s(tr, "start_pattern_be");
    be_sources = noc::start_pattern_be(net, spec.pattern, spec.pattern_opt,
                                       spec.be_interarrival_ps,
                                       spec.payload_words, spec.seed);
  }
  if (spec.churn_interarrival_ps > 0) {
    ScopedSpan s(tr, "ChurnWorkload::start");
    noc::BrokerConfig bc;
    bc.max_queue = spec.churn_queue;
    broker = std::make_unique<noc::ConnectionBroker>(net, mgr, bc);
    noc::ChurnOptions copt;
    copt.mean_open_interarrival_ps = spec.churn_interarrival_ps;
    copt.mean_hold_ps = spec.churn_hold_ps;
    copt.gs_period_ps = spec.churn_gs_period_ps;
    copt.seed = spec.seed;
    churn = std::make_unique<noc::ChurnWorkload>(net, *broker, hub, copt);
    churn->start();
  }
  o.t.start_s = seconds_since(t0);
  o.sources = gs_sources.size() + be_sources.size() + (churn ? 1 : 0);

  // The simulation, cut into equal slices of simulated time.
  const unsigned slices = std::max(1u, opt.slices);
  for (unsigned k = 1; k <= slices; ++k) {
    const sim::Time t_end = static_cast<sim::Time>(
        static_cast<long double>(spec.duration_ps) * k / slices);
    const std::uint64_t w0 = net.windows_run();
    ScopedSpan s(tr, "Network::run_until");
    const auto ts = Clock::now();
    const std::uint64_t ev = net.run_until(t_end);
    const double dt = seconds_since(ts);
    o.t.run_s += dt;
    if (ev > 0) {
      o.slice_ns_per_event_max =
          std::max(o.slice_ns_per_event_max, dt * 1e9 / static_cast<double>(ev));
    }
    s.tag("events", static_cast<double>(ev));
    s.tag("windows", static_cast<double>(net.windows_run() - w0));
  }
  o.windows_run = net.windows_run();
  o.windows_elided = net.windows_elided();

  t0 = Clock::now();
  CoreStats& c = o.core;
  std::vector<double> scratch;
  {
    ScopedSpan s(tr, "hub reads");
    c.events = net.events_dispatched();
    // BE: one flow per core, keyed by its source tag.
    c.be_generated = sum_counter(net, "traffic.be_packets_generated");
    for (const auto& src : be_sources) {
      BeFlow f;
      f.tag = src->tag();
      f.generated = src->generated();
      f.delivered = hub.flow_packets(src->tag());
      c.be_held += src->offered_but_held();
      o.be.push_back(f);
    }
    const std::uint32_t be_end =
        noc::kBeTagBase +
        static_cast<std::uint32_t>(net.topology().spec().core_count());
    for (const std::uint32_t tag : hub.tags()) {
      if (tag < noc::kBeTagBase || tag >= be_end) continue;
      c.be_delivered += hub.flow_packets(tag);
      hub.append_latency_samples(tag, o.be_latency_ns);
    }
    o.latency_samples += o.be_latency_ns.size();
    sim::Histogram be_lat;
    for (const double x : o.be_latency_ns) be_lat.add(x);
    c.be_latency_p99_ns = be_lat.p99();

    // Static GS set.
    for (std::size_t i = 0; i < gs_eps.size(); ++i) {
      const noc::GsSetEndpoint& ep = gs_eps[i];
      GsFlow g = read_gs_flow(hub, ep.tag, scratch, o.latency_samples);
      g.src_idx = net.topology().index(ep.src);
      g.dst_idx = net.topology().index(ep.dst);
      g.generated = gs_sources[i]->generated();
      g.period_ps = spec.gs_period_ps;
      c.gs_generated += g.generated;
      c.gs_delivered += g.flits;
      c.gs_latency_max_ns = std::max(c.gs_latency_max_ns, g.max_latency_ns);
      o.gs.push_back(g);
    }
    const std::uint64_t gs_counter =
        sum_counter(net, "traffic.gs_flits_generated");
    o.churn_generated_counter = gs_counter - c.gs_generated;

    // Churn streams and the broker's request ledger.
    if (broker) {
      o.churn = true;
      const noc::ConnectionBroker::Stats& bs = broker->stats();
      c.churn_requested = bs.requested;
      c.churn_ready = bs.ready;
      c.churn_closed = bs.closed;
      c.churn_rejected = bs.rejected;
      o.broker_admitted = bs.admitted;
      o.broker_retries = bs.retries;
      o.setup_ns = bs.setup_latency_ns.samples();
      o.teardown_ns = bs.teardown_latency_ns.samples();
      for (std::uint32_t id = 1; id <= bs.requested; ++id) {
        ++o.request_states[static_cast<std::size_t>(broker->state(id))];
      }
      c.churn_generated = o.churn_generated_counter;
      for (std::uint32_t k = 0; k < bs.requested; ++k) {
        const std::uint32_t tag = noc::kChurnTagBase + k;
        if (!hub.has_flow(tag)) continue;
        GsFlow g = read_gs_flow(hub, tag, scratch, o.latency_samples);
        g.churn = true;
        g.period_ps = spec.churn_gs_period_ps;
        c.churn_delivered += g.flits;
        o.gs.push_back(g);
      }
    }
  }
  {
    ScopedSpan s(tr, "NetworkReport::collect");
    const noc::NetworkReport rep =
        noc::NetworkReport::collect(net, spec.duration_ps);
    c.link_flits = rep.total_flits_on_links;
    c.peak_link_utilization = rep.peak_link_utilization;
  }
  o.t.collect_s = seconds_since(t0);
  scn.tag("events", static_cast<double>(c.events));
  return o;
}

PlanProbe probe_plan(const mango::exp::ScenarioSpec& spec, Tracer* tracer) {
  ScopedSpan probe(tracer, "plan probe");
  const auto plan =
      noc::FabricPlan::build(spec.topology_spec(), spec.router.be_vcs, 1);
  PlanProbe p;
  auto t0 = Clock::now();
  std::unique_ptr<noc::RouteTable> table;
  {
    ScopedSpan s(tracer, "RouteTable::RouteTable");
    table = std::make_unique<noc::RouteTable>(plan->topology(),
                                              plan->routing(), 1);
  }
  p.route_table_s = seconds_since(t0);
  t0 = Clock::now();
  {
    ScopedSpan s(tracer, "check_deadlock_freedom");
    const noc::DeadlockCheck chk = noc::check_deadlock_freedom(
        plan->topology(), *table, plan->vc_class_map(), spec.router.be_vcs);
    s.tag("edges", static_cast<double>(chk.edges));
  }
  p.cdg_s = seconds_since(t0);
  return p;
}

}  // namespace perfbench
