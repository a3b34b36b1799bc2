// Unit + property tests for the non-blocking switching module (Fig 5).
#include <gtest/gtest.h>

#include "noc/common/config.hpp"
#include "noc/router/router.hpp"
#include "noc/router/switching.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct SwitchingFixture : ::testing::Test {
  RouterConfig cfg;
  StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  SwitchingModule sw{cfg, delays};
};

TEST_F(SwitchingFixture, NetworkInputMapUsesAllEightCodes) {
  // From a network input: 3 other ports x 2 halves + local + BE = 8.
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    unsigned gs = 0, be = 0, local = 0;
    for (std::uint8_t c = 0; c < 8; ++c) {
      const auto d = sw.decode(p, c);
      if (d.kind == SwitchingModule::Dest::Kind::kBe) {
        ++be;
      } else if (d.kind == SwitchingModule::Dest::Kind::kGs) {
        ++gs;
        if (d.out == kLocalPort) ++local;
        // No U-turns.
        EXPECT_NE(d.out, p);
      }
    }
    EXPECT_EQ(gs, 7u);
    EXPECT_EQ(local, 1u);
    EXPECT_EQ(be, 1u);
  }
}

TEST_F(SwitchingFixture, LocalInputReachesAllNetworkHalves) {
  unsigned count[kNumDirections] = {};
  for (std::uint8_t c = 0; c < 8; ++c) {
    const auto d = sw.decode(kLocalPort, c);
    ASSERT_EQ(d.kind, SwitchingModule::Dest::Kind::kGs);
    ASSERT_TRUE(is_network_port(d.out));
    ++count[d.out];
  }
  for (unsigned n : count) EXPECT_EQ(n, 2u);  // both halves
}

TEST_F(SwitchingFixture, EncodeDecodeRoundTripsForAllReachableBuffers) {
  for (PortIdx in = 0; in < kNumPorts; ++in) {
    for (PortIdx out = 0; out < kNumDirections; ++out) {
      if (out == in) continue;  // unreachable (U-turn)
      for (VcIdx vc = 0; vc < cfg.vcs_per_port; ++vc) {
        const VcBufferId dest{out, vc};
        const SteerBits steer = sw.encode_gs(in, dest);
        const auto d = sw.decode(in, steer.split);
        ASSERT_EQ(d.kind, SwitchingModule::Dest::Kind::kGs);
        ASSERT_EQ(d.out, out);
        ASSERT_EQ(d.half * 4 + steer.vc, vc);
      }
    }
    if (in != kLocalPort) {
      // Local output interfaces reachable from network inputs.
      for (VcIdx i = 0; i < cfg.local_gs_ifaces; ++i) {
        const SteerBits steer = sw.encode_gs(in, {kLocalPort, i});
        const auto d = sw.decode(in, steer.split);
        ASSERT_EQ(d.out, kLocalPort);
        ASSERT_EQ(steer.vc, i % 4);
      }
    }
  }
}

TEST_F(SwitchingFixture, UTurnIsUnreachable) {
  EXPECT_THROW(sw.encode_gs(port_of(Direction::kNorth),
                            VcBufferId{port_of(Direction::kNorth), 0}),
               mango::ModelError);
}

TEST_F(SwitchingFixture, LocalToLocalIsUnreachable) {
  EXPECT_THROW(sw.encode_gs(kLocalPort, VcBufferId{kLocalPort, 0}),
               mango::ModelError);
}

TEST_F(SwitchingFixture, BeCodesExistOnNetworkInputsOnly) {
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    const std::uint8_t code = sw.be_code(p);
    EXPECT_EQ(sw.decode(p, code).kind, SwitchingModule::Dest::Kind::kBe);
  }
  EXPECT_THROW(sw.be_code(kLocalPort), mango::ModelError);
}

TEST_F(SwitchingFixture, GsRouteIsConstantLatency) {
  const VcBufferId dest{port_of(Direction::kEast), 5};
  const SteerBits steer = sw.encode_gs(port_of(Direction::kWest), dest);
  const SwitchingModule::PlannedHop hop =
      sw.plan(port_of(Direction::kWest), steer);
  EXPECT_FALSE(hop.to_be);
  EXPECT_EQ(hop.target, dest);
  // Non-blocking: split + switch + unsharebox latch, always.
  EXPECT_EQ(hop.stage_delay,
            delays.split_fwd + delays.switch_fwd + delays.unshare_fwd);
}

TEST_F(SwitchingFixture, BeRouteAfterSplitOnly) {
  const PortIdx in = port_of(Direction::kSouth);
  const SwitchingModule::PlannedHop hop =
      sw.plan(in, SteerBits{sw.be_code(in), 0});
  EXPECT_TRUE(hop.to_be);
  EXPECT_EQ(hop.stage_delay, delays.split_fwd);
}

TEST_F(SwitchingFixture, CountsRoutedFlits) {
  const SteerBits steer =
      sw.encode_gs(kLocalPort, {port_of(Direction::kNorth), 0});
  sw.plan(kLocalPort, steer);  // a decode alone is not a traversal
  EXPECT_EQ(sw.flits_routed(), 0u);
  for (int i = 0; i < 5; ++i) sw.note_routed();
  EXPECT_EQ(sw.flits_routed(), 5u);
}

TEST(SwitchingInRouter, GsFlitLandsAfterTheStageDelay) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  Router r(ctx, RouterConfig{}, NodeId{0, 0}, "R");
  const VcBufferId dest{kLocalPort, 1};
  const SteerBits steer =
      r.switching().encode_gs(port_of(Direction::kWest), dest);
  const sim::Time landing =
      1000 + delays.split_fwd + delays.switch_fwd + delays.unshare_fwd;
  Flit f;
  f.data = 99;
  sim.at(1000, [&] {
    r.receive_link_flit(port_of(Direction::kWest), LinkFlit{steer, f});
  });
  sim.run_until(landing - 1);
  EXPECT_EQ(r.vc_buffer(dest).flits_through(), 0u);
  sim.run_until(landing);
  EXPECT_EQ(r.vc_buffer(dest).flits_through(), 1u);
  EXPECT_EQ(r.switching().flits_routed(), 1u);
}

TEST(SwitchingConfig, RejectsOversizedVcCounts) {
  RouterConfig cfg;
  cfg.vcs_per_port = 9;  // 5 steering bits cap at 8
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  EXPECT_THROW(SwitchingModule(cfg, delays), mango::ModelError);
}

TEST(SwitchingConfig, SmallerVcCountsWork) {
  RouterConfig cfg;
  cfg.vcs_per_port = 4;  // one half-switch per output
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  SwitchingModule sw(cfg, delays);
  const SteerBits s = sw.encode_gs(kLocalPort, {port_of(Direction::kWest), 3});
  const auto d = sw.decode(kLocalPort, s.split);
  EXPECT_EQ(d.out, port_of(Direction::kWest));
  EXPECT_EQ(d.half * 4 + s.vc, 3u);
}

}  // namespace
}  // namespace mango::noc
