// Unit + property tests for the link access arbiter (Section 4.4).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/common/packet.hpp"
#include "noc/network/network.hpp"
#include "noc/router/arbiter.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

/// Drives a LinkArbiter the way its owning Router does, one
/// arbitration cycle per step: grant, deliver, recover. Persistent
/// requesters keep their line raised across grants (in a router they
/// re-request well inside one arb_cycle).
struct ArbiterHarness {
  RouterConfig cfg;
  std::unique_ptr<LinkArbiter> arb;
  std::vector<std::uint64_t> grants;
  std::uint64_t be_grants = 0;
  std::vector<bool> persistent;
  bool be_persistent = false;

  explicit ArbiterHarness(ArbiterKind kind,
                          BePolicy policy = BePolicy::kIdleShares) {
    cfg.arbiter = kind;
    cfg.be_policy = policy;
    arb = std::make_unique<LinkArbiter>(cfg, "test-arb");
    grants.assign(cfg.vcs_per_port, 0);
    persistent.assign(cfg.vcs_per_port, false);
  }

  void make_persistent(std::initializer_list<unsigned> vcs) {
    for (unsigned vc : vcs) {
      persistent[vc] = true;
      arb->set_request_gs(static_cast<VcIdx>(vc), true);
    }
  }

  /// Runs `cycles` arbitration cycles.
  void run_cycles(unsigned cycles) {
    for (unsigned c = 0; c < cycles; ++c) {
      const int sel = arb->grant();
      if (sel == static_cast<int>(arb->vcs())) {
        ++be_grants;
        if (!be_persistent) arb->set_request_be(false);
      } else if (sel >= 0) {
        ++grants[static_cast<unsigned>(sel)];
        if (!persistent[static_cast<unsigned>(sel)]) {
          arb->set_request_gs(static_cast<VcIdx>(sel), false);
        }
      }
      arb->complete_cycle();
    }
  }
};

TEST(LinkArbiter, SingleRequesterGetsEveryGrant) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({3});
  h.run_cycles(100);
  EXPECT_EQ(h.grants[3], 100u);
  for (unsigned vc = 0; vc < 8; ++vc) {
    if (vc != 3) {
      EXPECT_EQ(h.grants[vc], 0u);
    }
  }
}

TEST(LinkArbiter, StageIsHeldUntilTheCycleCompletes) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({0, 1});
  EXPECT_EQ(h.arb->grant(), 0);
  EXPECT_EQ(h.arb->grant(), -1);  // busy: one grant per arbitration cycle
  h.arb->complete_cycle();
  EXPECT_EQ(h.arb->grant(), 1);
}

TEST(LinkArbiter, NothingRequestedGrantsNothing) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  EXPECT_EQ(h.arb->grant(), -1);
  EXPECT_EQ(h.arb->total_grants(), 0u);
}

/// Property (the fair-share guarantee): with n persistent requesters,
/// every one gets at least floor(total/n) - 1 grants, i.e. >= 1/V of the
/// link when all V request.
class FairShareFairness : public ::testing::TestWithParam<unsigned> {};

TEST_P(FairShareFairness, EqualSplitAmongPersistentRequesters) {
  const unsigned n = GetParam();
  ArbiterHarness h(ArbiterKind::kFairShare);
  for (unsigned vc = 0; vc < n; ++vc) {
    h.persistent[vc] = true;
    h.arb->set_request_gs(static_cast<VcIdx>(vc), true);
  }
  h.run_cycles(800);
  std::uint64_t total = 0;
  for (unsigned vc = 0; vc < n; ++vc) total += h.grants[vc];
  EXPECT_EQ(total, 800u);  // work conserving
  for (unsigned vc = 0; vc < n; ++vc) {
    EXPECT_GE(h.grants[vc], total / n - 1) << "vc " << vc;
    EXPECT_LE(h.grants[vc], total / n + 1) << "vc " << vc;
  }
}

INSTANTIATE_TEST_SUITE_P(ActiveVcCounts, FairShareFairness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(LinkArbiter, UnusedSharesRedistribute) {
  // Section 4.4: "If a VC does not use its allocated bandwidth, the link
  // is automatically used by another contending VC."
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({1, 6});
  h.run_cycles(400);
  const auto total = h.grants[1] + h.grants[6];
  EXPECT_EQ(total, 400u);  // the two VCs share the *full* link
  EXPECT_NEAR(static_cast<double>(h.grants[1]),
              static_cast<double>(h.grants[6]), 2.0);
}

TEST(LinkArbiter, StaticPriorityFavorsLowIndices) {
  ArbiterHarness h(ArbiterKind::kStaticPriority);
  h.make_persistent({0, 7});
  h.run_cycles(200);
  // VC0 requests again before every arbitration, so it monopolizes the
  // link and VC7 starves.
  EXPECT_EQ(h.grants[0], 200u);
  EXPECT_EQ(h.grants[7], 0u);
}

TEST(LinkArbiter, StaticPriorityServesLowerWhenHighIdles) {
  ArbiterHarness h(ArbiterKind::kStaticPriority);
  h.make_persistent({5});
  h.run_cycles(50);
  EXPECT_EQ(h.grants[5], 50u);
}

TEST(LinkArbiter, BeIdleSharesPolicyYieldsToGs) {
  ArbiterHarness h(ArbiterKind::kFairShare, BePolicy::kIdleShares);
  h.be_persistent = true;
  h.arb->set_request_be(true);
  h.make_persistent({0, 1, 2, 3, 4, 5, 6, 7});
  h.run_cycles(400);
  // All 8 GS VCs saturate: BE gets nothing.
  EXPECT_EQ(h.be_grants, 0u);
  for (unsigned vc = 0; vc < 8; ++vc) {
    EXPECT_EQ(h.grants[vc], 400u / 8);
  }
}

TEST(LinkArbiter, BeIdleSharesPolicyGrantsWhenGsIdle) {
  ArbiterHarness h(ArbiterKind::kFairShare, BePolicy::kIdleShares);
  h.be_persistent = true;
  h.arb->set_request_be(true);
  h.run_cycles(100);
  EXPECT_EQ(h.be_grants, 100u);
}

TEST(LinkArbiter, BeEqualSharePolicyGivesBeOneSlot) {
  ArbiterHarness h(ArbiterKind::kFairShare, BePolicy::kEqualShare);
  h.be_persistent = true;
  h.arb->set_request_be(true);
  h.make_persistent({0, 1, 2, 3, 4, 5, 6, 7});
  h.run_cycles(900);
  // BE behaves like a 9th VC: 1/9 of grants.
  EXPECT_EQ(h.be_grants, 100u);
}

TEST(LinkArbiter, CountersAndName) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({2});
  h.run_cycles(20);
  EXPECT_EQ(h.arb->name(), "test-arb");
  EXPECT_EQ(h.arb->total_grants(), h.grants[2]);
  EXPECT_EQ(h.arb->grants_gs(2), h.grants[2]);
  EXPECT_EQ(h.arb->grants_be(), 0u);
}

TEST(LinkArbiter, RequestForNonexistentVcThrows) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  EXPECT_THROW(h.arb->set_request_gs(8, true), mango::ModelError);
}

TEST(LinkArbiter, IdempotentRequestUpdates) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  // Only a rising line asks the owner for a grant attempt.
  EXPECT_FALSE(h.arb->set_request_gs(0, false));  // no-op
  EXPECT_TRUE(h.arb->set_request_gs(0, true));
  EXPECT_FALSE(h.arb->set_request_gs(0, true));   // duplicate
  EXPECT_FALSE(h.arb->set_request_gs(0, false));  // falling
  EXPECT_TRUE(h.arb->set_request_be(true));
  EXPECT_FALSE(h.arb->set_request_be(true));
  EXPECT_FALSE(h.arb->set_request_be(false));
}

/// The arbiter's owner paces grants: the link-output stage recovers one
/// arb_cycle after each grant and grants again at once while a requester
/// is still raised. A BE stream that is never short of flits or credits
/// keeps the line raised: its first flit reaches the stage inside the
/// first arb_cycle (NA wire plus one route cycle), the source router
/// refills the stage every be_route_cycle (shorter than arb_cycle), and
/// the downstream buffer's four credits come back well inside four arb
/// cycles. So the link carries exactly one flit per arb_cycle; a stage
/// that missed a single re-grant would fall short.
TEST(LinkArbiterInRouter, GrantsArePacedAtArbCycle) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 1, RouterConfig{}, 1};
  Network net(ctx, mesh);
  const BeHeader header = net.be_header({0, 0}, {1, 0});
  const std::vector<std::uint32_t> payload(15, 7);
  for (int i = 0; i < 40; ++i) {
    net.na({0, 0}).send_be_packet(make_be_packet(header, payload, 1));
  }
  const StageDelays& d = net.router({0, 0}).delays();
  ASSERT_LT(d.na_link_fwd + d.be_route_cycle, d.arb_cycle);
  ASSERT_LT(d.be_route_cycle, d.arb_cycle);
  const sim::Time horizon = 200 * d.arb_cycle;
  ctx.sim().run_until(horizon);
  const LinkArbiter& arb =
      net.router({0, 0}).arbiter(port_of(Direction::kEast));
  EXPECT_EQ(arb.total_grants(), horizon / d.arb_cycle);
  EXPECT_EQ(arb.grants_be(), arb.total_grants());
}

}  // namespace
}  // namespace mango::noc
