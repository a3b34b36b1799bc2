#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "noc/network/connection_broker.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace noc = mango::noc;

namespace {

unsigned ring_distance(std::uint64_t a, std::uint64_t b, std::uint64_t n) {
  const std::uint64_t d = a > b ? a - b : b - a;
  return static_cast<unsigned>(std::min(d, n - d));
}

/// Fabric diameter in router hops, from the coordinates alone.
unsigned diameter(const Observation& o) {
  const unsigned w = o.spec.width;
  const unsigned h = o.spec.height;
  const unsigned n = static_cast<unsigned>(o.nodes.size());
  switch (o.spec.topology) {
    case noc::TopologyKind::kMesh:
    case noc::TopologyKind::kCMesh:
      return (w - 1) + (h - 1);
    case noc::TopologyKind::kTorus:
      return w / 2 + h / 2;
    case noc::TopologyKind::kRing:
      return n / 2;
    case noc::TopologyKind::kGraph:
      return n - 1;  // any loop-free route
  }
  return n - 1;
}

/// Router hops between two nodes under minimal routing, from the
/// coordinates alone (the irregular graph gets the loop-free maximum).
unsigned coordinate_distance(const Observation& o, std::uint64_t a,
                             std::uint64_t b) {
  const noc::NodeId p = o.nodes[a];
  const noc::NodeId q = o.nodes[b];
  const unsigned dx = p.x > q.x ? p.x - q.x : q.x - p.x;
  const unsigned dy = p.y > q.y ? p.y - q.y : q.y - p.y;
  switch (o.spec.topology) {
    case noc::TopologyKind::kMesh:
    case noc::TopologyKind::kCMesh:
      return dx + dy;
    case noc::TopologyKind::kTorus:
      return std::min<unsigned>(dx, o.spec.width - dx) +
             std::min<unsigned>(dy, o.spec.height - dy);
    case noc::TopologyKind::kRing:
      return ring_distance(a, b, o.nodes.size());
    case noc::TopologyKind::kGraph:
      return diameter(o);
  }
  return diameter(o);
}

/// Side of the bisection cut: the west half of the columns on grids,
/// the first half of the indices on the ring.
bool west_side(const Observation& o, std::uint64_t idx) {
  if (o.spec.topology == noc::TopologyKind::kRing) {
    return idx < o.nodes.size() / 2;
  }
  return o.nodes[idx].x < o.spec.width / 2;
}

}  // namespace

double guaranteed_rate(const Observation& o, const GsFlow& g) {
  const double share =
      kLinkRateFlitsPerNs / static_cast<double>(o.spec.router.vcs_per_port);
  if (g.period_ps == 0) return share;
  return std::min(share, 1000.0 / static_cast<double>(g.period_ps));
}

unsigned arbiter_hops(const Observation& o, const GsFlow& g) {
  const unsigned d =
      g.churn ? diameter(o) : coordinate_distance(o, g.src_idx, g.dst_idx);
  return d + 2;
}

double latency_bound_ns(const Observation& o, unsigned hops) {
  const double v = static_cast<double>(o.spec.router.vcs_per_port);
  return hops * (v * kArbCycleNs + kMediaForwardNs + kBufAdvanceNs);
}

double bisection_bound_pkts_per_ns(const Observation& o) {
  const std::uint64_t n = o.nodes.size();
  double cut_links = 0.0;  // per direction
  switch (o.spec.topology) {
    case noc::TopologyKind::kMesh:
    case noc::TopologyKind::kCMesh:
      cut_links = o.spec.height;
      break;
    case noc::TopologyKind::kTorus:
      cut_links = 2.0 * o.spec.height;
      break;
    case noc::TopologyKind::kRing:
      cut_links = 2.0;
      break;
    case noc::TopologyKind::kGraph:
      return 0.0;
  }
  // Share of packets whose (src, dst) straddles the cut, per node (every
  // node carries the same number of sources).
  double crossing = 0.0;
  std::uint64_t active = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool west = west_side(o, i);
    if (o.spec.pattern == noc::BePattern::kUniform) {
      std::uint64_t other = 0;
      for (std::uint64_t j = 0; j < n; ++j) {
        if (j != i && west_side(o, j) != west) ++other;
      }
      crossing += static_cast<double>(other) / static_cast<double>(n - 1);
      ++active;
    } else if (o.spec.pattern == noc::BePattern::kBitComplement) {
      const std::uint64_t j = n - 1 - i;  // linear-index complement
      if (j == i) continue;
      crossing += west_side(o, j) != west ? 1.0 : 0.0;
      ++active;
    } else {
      return 0.0;
    }
  }
  if (active == 0 || crossing == 0.0) return 0.0;
  const double share = crossing / static_cast<double>(active);
  const double flits_per_packet = 1.0 + o.spec.payload_words;
  return 2.0 * cut_links * kLinkRateFlitsPerNs / (flits_per_packet * share);
}

std::vector<std::string> check_properties(const Observation& o) {
  std::vector<std::string> fails;
  const auto fail = [&fails](const std::string& check, const std::string& what) {
    fails.push_back(check + ": " + what);
  };
  const double horizon_ns = mango::sim::to_ns(o.spec.duration_ps);

  std::uint64_t churn_delivered = 0;
  for (const GsFlow& g : o.gs) {
    std::ostringstream id;
    id << (g.churn ? "churn" : "gs") << " tag 0x" << std::hex << g.tag;
    const double rate = guaranteed_rate(o, g);
    // Rate: static connections stream for the whole horizon.
    if (!g.churn) {
      const double need = 0.9 * rate * horizon_ns;
      if (static_cast<double>(g.flits) < need) {
        std::ostringstream m;
        m << id.str() << " delivered " << g.flits << " < " << need;
        fail("rate", m.str());
      }
      if (g.flits > g.generated) {
        std::ostringstream m;
        m << id.str() << " delivered " << g.flits << " > generated "
          << g.generated;
        fail("delivery", m.str());
      }
    } else {
      churn_delivered += g.flits;
    }
    // Latency: only connections paced at or below their guarantee.
    const bool paced = g.period_ps > 0 &&
                       1000.0 / static_cast<double>(g.period_ps) <=
                           kLinkRateFlitsPerNs / o.spec.router.vcs_per_port;
    if (paced) {
      const unsigned hops = arbiter_hops(o, g);
      const double bound = latency_bound_ns(o, hops);
      if (g.max_latency_ns > bound) {
        std::ostringstream m;
        m << id.str() << " max latency " << g.max_latency_ns << " ns > "
          << bound << " ns over " << hops << " hops";
        fail("latency", m.str());
      }
    }
    // Order: every sequence number from 0 arrived once, in order.
    if (g.seq_errors != 0 || g.flits != g.next_seq) {
      std::ostringstream m;
      m << id.str() << " seq_errors " << g.seq_errors << ", flits " << g.flits
        << ", next_seq " << g.next_seq;
      fail("order", m.str());
    }
  }

  for (const BeFlow& b : o.be) {
    if (b.delivered > b.generated) {
      std::ostringstream m;
      m << "be tag 0x" << std::hex << b.tag << std::dec << " delivered "
        << b.delivered << " > generated " << b.generated;
      fail("delivery", m.str());
    }
  }

  if (o.churn) {
    using RS = noc::RequestState;
    const auto st = [&o](RS s) {
      return o.request_states[static_cast<std::size_t>(s)];
    };
    std::uint64_t total = 0;
    for (const std::uint64_t k : o.request_states) total += k;
    const std::uint64_t reached_ready = st(RS::kReady) + st(RS::kDraining) +
                                        st(RS::kClearing) + st(RS::kClosed);
    std::ostringstream m;
    if (total != o.core.churn_requested) {
      m << "states sum to " << total << " of " << o.core.churn_requested
        << " requests; ";
    }
    if (st(RS::kRejected) != o.core.churn_rejected) {
      m << "rejected " << st(RS::kRejected) << " != " << o.core.churn_rejected
        << "; ";
    }
    if (st(RS::kClosed) != o.core.churn_closed) {
      m << "closed " << st(RS::kClosed) << " != " << o.core.churn_closed << "; ";
    }
    if (reached_ready != o.core.churn_ready) {
      m << "past Ready " << reached_ready << " != " << o.core.churn_ready << "; ";
    }
    if (o.broker_admitted != o.core.churn_ready + st(RS::kProgramming)) {
      m << "admitted " << o.broker_admitted << " != ready + programming; ";
    }
    // Every generated churn flit is delivered, except those still in
    // flight on streams open at the horizon: at most the flits a stream
    // emits within its worst-case latency, plus one queued at the NA.
    if (churn_delivered > o.churn_generated_counter) {
      m << "delivered " << churn_delivered << " > generated "
        << o.churn_generated_counter << "; ";
    } else {
      const std::uint64_t open =
          st(RS::kReady) + st(RS::kDraining) + st(RS::kClearing);
      const double window =
          latency_bound_ns(o, diameter(o) + 2) /
          mango::sim::to_ns(o.spec.churn_gs_period_ps);
      const double allowance = static_cast<double>(open) * (std::ceil(window) + 1);
      const std::uint64_t missing = o.churn_generated_counter - churn_delivered;
      if (static_cast<double>(missing) > allowance) {
        m << missing << " churn flits undelivered, " << open
          << " streams open allow " << allowance << "; ";
      }
    }
    if (!m.str().empty()) fail("churn", m.str());
  }

  const double bound = bisection_bound_pkts_per_ns(o);
  if (bound > 0.0) {
    const double tput = static_cast<double>(o.core.be_delivered) / horizon_ns;
    if (tput >= bound) {
      std::ostringstream m;
      m << "BE " << tput << " pkts/ns >= bound " << bound;
      fail("bisection", m.str());
    }
  }
  return fails;
}

}  // namespace perfbench
