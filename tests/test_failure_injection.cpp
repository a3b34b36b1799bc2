// Failure-injection tests: misprogrammed networks must be *detected* by
// the model's invariants, not silently corrupt traffic.
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct FailureFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  MeshConfig mesh{2, 2, RouterConfig{}, 1};
  Network net{ctx, mesh};
};

TEST_F(FailureFixture, TwoConnectionsOnOneVcBufferCollide) {
  // Program two sources into the *same* VC buffer of router (1,0) —
  // bypassing the connection manager's allocator. The non-blocking
  // invariant (one connection per buffer) is violated and the
  // unsharebox collision fires under concurrent traffic.
  Router& r0 = net.router({0, 0});
  const VcBufferId shared{port_of(Direction::kEast), 0};
  const VcBufferId dst_buf{kLocalPort, 0};

  // Two NA sources at (0,0) both steered into `shared`.
  const SteerBits steer = r0.switching().encode_gs(kLocalPort, shared);
  net.na({0, 0}).configure_gs_source(0, steer);
  net.na({0, 0}).configure_gs_source(1, steer);
  r0.table().set_reverse(shared, ReverseEntry{kLocalPort, 0});
  r0.table().set_forward(
      shared, net.router({1, 0}).switching().encode_gs(
                  port_of(Direction::kWest), dst_buf));
  net.router({1, 0}).table().set_reverse(
      dst_buf, ReverseEntry{port_of(Direction::kWest), 0});

  // Both interfaces fire: the second flit reaches the occupied
  // unsharebox (its own sharebox is a *different* box, so nothing stops
  // it — exactly the failure the invariant exists for).
  net.na({0, 0}).gs_send(0, Flit{});
  net.na({0, 0}).gs_send(1, Flit{});
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(FailureFixture, MissingReverseEntryDetectedOnFirstFlit) {
  Router& r0 = net.router({0, 0});
  const VcBufferId buf{port_of(Direction::kEast), 0};
  net.na({0, 0}).configure_gs_source(
      0, r0.switching().encode_gs(kLocalPort, buf));
  // Forward path programmed, reverse path forgotten.
  r0.table().set_forward(buf, net.router({1, 0}).switching().encode_gs(
                                  port_of(Direction::kWest),
                                  VcBufferId{kLocalPort, 0}));
  net.na({0, 0}).gs_send(0, Flit{});
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(FailureFixture, ReverseSignalForUnconfiguredNaSourceDetected) {
  Router& r0 = net.router({0, 0});
  const VcBufferId buf{port_of(Direction::kEast), 3};
  // Reverse entry points at NA interface 2, which is not configured.
  r0.table().set_reverse(buf, ReverseEntry{kLocalPort, 2});
  net.na({0, 0}).configure_gs_source(
      0, r0.switching().encode_gs(kLocalPort, buf));
  r0.table().set_forward(buf, net.router({1, 0}).switching().encode_gs(
                                  port_of(Direction::kWest),
                                  VcBufferId{kLocalPort, 0}));
  net.router({1, 0}).table().set_reverse(
      VcBufferId{kLocalPort, 0}, ReverseEntry{port_of(Direction::kWest), 3});
  net.na({0, 0}).gs_send(0, Flit{});
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(FailureFixture, MalformedProgrammingPacketDetectedAtTheRouter) {
  // A corrupted programming word (bad opcode) delivered through the
  // network raises at the programming interface.
  BePacket pkt = make_be_packet(
      net.be_route({0, 0}, {1, 1}, LocalIface::kProgramming),
      {0xF0000000u});
  net.na({0, 0}).send_be_packet(std::move(pkt));
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(FailureFixture, ProgrammingPacketForLiveConnectionDetected) {
  ConnectionManager mgr(net, NodeId{0, 0});
  mgr.open_direct({0, 0}, {1, 1});
  // A rogue packet reprograms a buffer that is already part of a live
  // connection: detected as a double-program.
  const Connection* conn = mgr.get(1);
  ASSERT_NE(conn, nullptr);
  const auto [node, buffer] = conn->hops[0];
  BePacket pkt = make_be_packet(
      net.be_route({1, 1}, node, LocalIface::kProgramming),
      {encode_prog_reverse(buffer, ReverseEntry{kLocalPort, 0})});
  net.na({1, 1}).send_be_packet(std::move(pkt));
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(FailureFixture, SteeringIntoNonexistentVcDetected) {
  // Hand-crafted steering bits select a local interface beyond the
  // configured count (2 in this shrunken config).
  RouterConfig small;
  small.local_gs_ifaces = 2;
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  SwitchingModule sw(small, delays);
  const SteerBits valid = sw.encode_gs(port_of(Direction::kWest),
                                       VcBufferId{kLocalPort, 1});
  EXPECT_THROW(sw.plan(port_of(Direction::kWest), SteerBits{valid.split, 3}),
               mango::ModelError);
}

}  // namespace
}  // namespace mango::noc
