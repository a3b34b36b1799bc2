// Property checks on one observed scenario, computed from the paper's
// service contract and the fabric's coordinates — never from a stored
// copy of an earlier output, and never from the simulator's own
// guarantee bookkeeping (ScenarioStats::guarantee_violations, the
// ChurnWorkload totals, model::worst_case_latency_ps).
#pragma once

#include <string>
#include <vector>

#include "layered.hpp"

namespace perfbench {

/// Worst-case corner constants of the paper's router (Section 6): a
/// 515 MHz port, i.e. one link grant per 1.942 ns, and the constant
/// media forward (merge + wire + split + switch + unsharebox) and buffer
/// advance of one hop.
inline constexpr double kArbCycleNs = 1.942;
inline constexpr double kMediaForwardNs = 1.360;
inline constexpr double kBufAdvanceNs = 0.120;
inline constexpr double kLinkRateFlitsPerNs = 1.0 / kArbCycleNs;

/// min(offered, link rate / V) in flits per ns; period 0 offers the link.
double guaranteed_rate(const Observation& o, const GsFlow& g);
/// Link arbiters a flow crosses: the coordinate distance of its
/// endpoints plus the two NA links (the fabric's diameter plus two for
/// churn streams, whose endpoints are gone once they close).
unsigned arbiter_hops(const Observation& o, const GsFlow& g);
/// hops x (V x arbitration cycle + media forward + buffer advance).
double latency_bound_ns(const Observation& o, unsigned hops);
/// Delivered-BE upper bound (pkts/ns) from the links crossing the
/// fabric's bisection and the share of traffic the pattern sends across
/// it; 0 where the fabric has no coordinate bisection (irregular graph)
/// or the pattern has no closed-form crossing share (hotspot, bursty).
double bisection_bound_pkts_per_ns(const Observation& o);

/// Every property check on `o`; empty when all hold. Each entry names
/// the check ("rate", "latency", "delivery", "order", "churn",
/// "bisection") followed by the offending flow.
std::vector<std::string> check_properties(const Observation& o);

/// Negative controls (selftest.cpp): small cases, each built to break
/// one check, asserting that the check fires. Returns the exit code.
int run_selftest();

}  // namespace perfbench
