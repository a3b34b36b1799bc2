// Negative controls: every property check and the stats comparison must
// fire on a case built to break it, and stay quiet on its unbroken twin
// — otherwise a passing benchmark run would prove nothing.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "layered.hpp"

namespace perfbench {

namespace noc = mango::noc;
namespace mexp = mango::exp;

namespace {

int g_failures = 0;

bool fires(const std::vector<std::string>& fails, const std::string& check) {
  for (const std::string& f : fails) {
    if (f.compare(0, check.size() + 1, check + ":") == 0) return true;
  }
  return false;
}

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void expect_fires(const Observation& o, const std::string& check,
                  const std::string& what) {
  const auto fails = check_properties(o);
  expect(fires(fails, check), what + " trips '" + check + "'");
}

void expect_clean(const Observation& o, const std::string& what) {
  const auto fails = check_properties(o);
  for (const std::string& f : fails) std::printf("     %s\n", f.c_str());
  expect(fails.empty(), what + " passes every check");
}

mexp::ScenarioSpec small(std::uint16_t side) {
  mexp::ScenarioSpec s;
  s.width = s.height = side;
  s.duration_ps = 1000000;
  s.be_interarrival_ps = 8000;
  s.gs_period_ps = 16000;
  s.gs_set = noc::GsSetKind::kRing;
  return s;
}

Observation run(const mexp::ScenarioSpec& s) {
  return run_layered(s, LayeredOptions{});
}

}  // namespace

int run_selftest() {
  // Rate: saturating all-to-hotspot connections under the unregulated
  // arbiter ablation starve a VC; under fair-share they all get 1/V.
  {
    mexp::ScenarioSpec s = small(4);
    s.gs_set = noc::GsSetKind::kAllToHotspot;
    s.gs_period_ps = 0;
    s.be_interarrival_ps = 4000;
    expect_clean(run(s), "saturating all-to-hotspot, fair-share");
    s.router.arbiter = noc::ArbiterKind::kUnregulated;
    expect_fires(run(s), "rate", "saturating all-to-hotspot, unregulated");
  }
  // Latency: connections offered 4x their guarantee queue at the NA, so
  // the bound (which only holds for paced connections) is exceeded; the
  // check exempts them, and fires once they are recorded as paced.
  {
    mexp::ScenarioSpec s = small(4);
    s.gs_set = noc::GsSetKind::kAllToHotspot;
    s.gs_period_ps = 4000;
    const Observation o = run(s);
    const auto fails = check_properties(o);
    expect(!fires(fails, "latency"), "over-paced connections are exempt from 'latency'");
    Observation paced = o;
    for (GsFlow& g : paced.gs) g.period_ps = 16000;
    expect_fires(paced, "latency", "over-paced connections recorded as paced");
  }
  // Delivery and order, on a clean paced run with one flow altered.
  {
    const Observation base = run(small(4));
    expect_clean(base, "paced 4x4 GS ring with BE");
    Observation dup = base;
    dup.gs[0].flits = dup.gs[0].generated + 1;
    dup.gs[0].next_seq = dup.gs[0].flits;
    expect_fires(dup, "delivery", "a GS flow delivering one flit more than generated");
    Observation be = base;
    be.be[0].delivered = be.be[0].generated + 1;
    expect_fires(be, "delivery", "a BE flow delivering one packet more than generated");
    Observation reorder = base;
    reorder.gs[0].seq_errors = 1;
    expect_fires(reorder, "order", "a GS flow with one out-of-order flit");
    Observation gap = base;
    gap.gs[0].next_seq += 1;
    expect_fires(gap, "order", "a GS flow missing one sequence number");
  }
  // Churn: the request census and flit conservation of the broker path.
  {
    mexp::ScenarioSpec s = small(4);
    s.be_interarrival_ps = 48000;
    s.gs_set = noc::GsSetKind::kNone;
    s.churn_interarrival_ps = 50000;
    s.churn_hold_ps = 250000;
    s.duration_ps = 3000000;
    const Observation base = run(s);
    expect_clean(base, "4x4 churn");
    expect(base.core.churn_closed > 0, "4x4 churn closes connections");
    Observation census = base;
    census.request_states[static_cast<std::size_t>(noc::RequestState::kClosed)] -= 1;
    census.request_states[static_cast<std::size_t>(noc::RequestState::kReady)] += 1;
    expect_fires(census, "churn", "a closed request counted as Ready");
    Observation lost = base;
    lost.churn_generated_counter += 1000;
    expect_fires(lost, "churn", "1000 churn flits generated but never delivered");
  }
  // Bisection: saturated uniform BE stays under the bound, but not four
  // times its delivered packets.
  {
    mexp::ScenarioSpec s = small(4);
    s.be_interarrival_ps = 0;
    s.gs_set = noc::GsSetKind::kNone;
    const Observation o = run(s);
    expect_clean(o, "saturated uniform BE on 4x4");
    Observation quad = o;
    quad.core.be_delivered *= 4;
    expect_fires(quad, "bisection", "saturated BE with four times its deliveries");
  }
  // Invariance: the stats comparison separates two seeds and matches a
  // rerun of one.
  {
    mexp::ScenarioSpec s = small(4);
    const Observation a = run(s);
    const Observation again = run(s);
    s.seed = 2;
    const Observation b = run(s);
    expect(CoreStats::diff(a.core, again.core).empty(), "a rerun of one seed compares equal");
    expect(!CoreStats::diff(a.core, b.core).empty(), "two seeds compare unequal");
    // One event more, every other stat equal, must compare unequal in
    // both comparisons (the shard-invariance case relies on it).
    Observation extra = a;
    extra.core.events += 1;
    expect(!CoreStats::diff(a.core, extra.core).empty(),
           "one extra event compares unequal (layered stats)");
    const mexp::ScenarioStats e2e = mexp::run_scenario(small(4)).stats;
    mexp::ScenarioStats e2e_extra = e2e;
    e2e_extra.events += 1;
    expect(e2e != e2e_extra, "one extra event compares unequal (end-to-end stats)");
  }
  std::printf("%s: %d control(s) failed\n", g_failures ? "FAILED" : "OK",
              g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
