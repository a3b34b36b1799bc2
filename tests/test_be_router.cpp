// Tests for the BE router (Section 5) on a Router's real wiring: flits
// enter through NAs or a router's input ports and leave over the links,
// the output stages and the link arbiters a Network assembles.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "noc/common/packet.hpp"
#include "noc/common/route.hpp"
#include "noc/network/network.hpp"
#include "noc/router/be_router.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {
namespace {

const PortIdx kEastPort = port_of(Direction::kEast);
const PortIdx kWestPort = port_of(Direction::kWest);

/// A 3x3 mesh with a recording BE handler on every NA.
struct BeFixture {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  std::unique_ptr<Network> net;
  std::vector<std::vector<BePacket>> received;

  explicit BeFixture(unsigned be_vcs = 1) {
    MeshConfig mesh{3, 3, RouterConfig{}, 1};
    mesh.router.be_vcs = be_vcs;
    net = std::make_unique<Network>(ctx, mesh);
    received.resize(9);
    for (std::uint16_t y = 0; y < 3; ++y) {
      for (std::uint16_t x = 0; x < 3; ++x) {
        const std::size_t i = static_cast<std::size_t>(y) * 3 + x;
        net->na({x, y}).set_be_handler(
            [this, i](BePacket&& pkt) { received[i].push_back(std::move(pkt)); });
      }
    }
  }

  std::vector<BePacket>& at(NodeId n) { return received[n.y * 3u + n.x]; }
  BeRouter& be(NodeId n) { return net->router(n).be_router(); }

  void send(NodeId src, NodeId dst, std::vector<std::uint32_t> payload,
            std::uint32_t tag, BeVcIdx vc = 0,
            LocalIface iface = LocalIface::kNetworkAdapter) {
    net->na(src).send_be_packet(
        make_be_packet(net->be_route(src, dst, iface), payload, tag), vc);
  }
};

TEST(BeRouterWiring, HeaderRotatesOncePerForwardAndTwiceOnDelivery) {
  BeFixture h;
  const BePacket sent =
      make_be_packet(h.net->be_route({0, 0}, {1, 0}), {111, 222}, 5);
  h.net->na({0, 0}).send_be_packet(BePacket{sent});
  h.sim.run();
  ASSERT_EQ(h.at({1, 0}).size(), 1u);
  const BePacket& got = h.at({1, 0})[0];
  ASSERT_EQ(got.size(), 3u);
  // (0,0) forwards East (one rotation); (1,0) sees the back code and
  // delivers locally (direction code + interface bits: two rotations).
  EXPECT_EQ(got.flits[0].data,
            rotate_header(rotate_header(rotate_header(sent.flits[0].data))));
  EXPECT_EQ(got.flits[1].data, 111u);
  EXPECT_EQ(got.flits[2].data, 222u);
  EXPECT_TRUE(got.flits[2].eop);
  EXPECT_EQ(h.be({0, 0}).flits_to(kEastPort), 3u);
  EXPECT_EQ(h.be({1, 0}).flits_to(BeRouter::kOutLocalNa), 3u);
}

TEST(BeRouterWiring, BackCodeSelectsTheLocalInterface) {
  BeFixture h;
  // A programming packet with one no-op word: the back code at (1,0)
  // plus the interface bits route it to the programming interface.
  h.send({0, 0}, {1, 0}, {0u}, 1, 0, LocalIface::kProgramming);
  h.send({0, 0}, {1, 0}, {42u}, 2);
  h.sim.run();
  EXPECT_EQ(h.be({1, 0}).flits_to(BeRouter::kOutProgramming), 2u);
  EXPECT_EQ(h.be({1, 0}).flits_to(BeRouter::kOutLocalNa), 2u);
  ASSERT_EQ(h.at({1, 0}).size(), 1u);
  EXPECT_EQ(h.at({1, 0})[0].flits[1].data, 42u);
}

TEST(BeRouterWiring, WormholePacketsDoNotInterleave) {
  BeFixture h;
  // (1,1)'s own packet and one from (0,1) contend for (1,1)'s East
  // output; each keeps the output until its EOP.
  const std::vector<std::uint32_t> pay(12, 0);
  for (std::uint32_t k = 0; k < 3; ++k) {
    h.send({1, 1}, {2, 1}, pay, 10 + k);
    h.send({0, 1}, {2, 1}, pay, 20 + k);
  }
  h.sim.run();
  ASSERT_EQ(h.at({2, 1}).size(), 6u);
  for (const BePacket& pkt : h.at({2, 1})) {
    ASSERT_EQ(pkt.size(), 13u);
    for (const Flit& f : pkt.flits) EXPECT_EQ(f.tag, pkt.flits[0].tag);
  }
  EXPECT_EQ(h.be({1, 1}).packets_routed(), 6u);
}

TEST(BeRouterWiring, RoundRobinAmongContendingInputs) {
  BeFixture h;
  // Saturating 2-flit streams from (0,1) and (1,0), both bound for
  // (2,1): they meet on two inputs of one router, and once both inputs
  // are backlogged the shared output alternates between them packet by
  // packet.
  for (int k = 0; k < 12; ++k) {
    h.send({0, 1}, {2, 1}, {1u}, 1);
    h.send({1, 0}, {2, 1}, {2u}, 2);
  }
  h.sim.run();
  const auto& got = h.at({2, 1});
  ASSERT_EQ(got.size(), 24u);
  unsigned from_0_1 = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].flits[0].tag == 1) ++from_0_1;
    if (i >= 2 && i + 2 < got.size()) {
      EXPECT_NE(got[i].flits[0].tag, got[i - 1].flits[0].tag) << "packet " << i;
    }
  }
  EXPECT_EQ(from_0_1, 12u);
}

TEST(BeRouterWiring, DualVcPacketsInterleaveOnOneOutput) {
  BeFixture h(/*be_vcs=*/2);
  // A long packet on VC 0 and a short one on VC 1 share (1,1)'s East
  // output: the VC 1 packet is not held behind the VC 0 wormhole.
  h.send({1, 1}, {2, 1}, std::vector<std::uint32_t>(24, 0), 1, 0);
  h.send({1, 1}, {2, 1}, {7u}, 2, 1);
  h.sim.run();
  const auto& got = h.at({2, 1});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].flits[0].tag, 2u);
  EXPECT_EQ(got[1].flits[0].tag, 1u);
  EXPECT_EQ(got[1].size(), 25u);
}

TEST(BeRouterWiring, CreditsReturnPerFlit) {
  BeFixture h;
  const unsigned depth = RouterConfig{}.be_buffer_depth;
  BeOutputStage& east = h.net->router({0, 0}).be_output(kEastPort);
  EXPECT_EQ(east.credits(), depth);
  // An 8-flit packet exceeds the 4-deep input buffers: it only gets
  // through if every routed flit hands its credit back upstream.
  h.send({0, 0}, {2, 0}, {1, 2, 3, 4, 5, 6, 7}, 3);
  h.sim.run_until(8 * h.net->router({0, 0}).delays().arb_cycle);
  EXPECT_LT(east.credits(), depth);  // flits in flight downstream
  h.sim.run();
  ASSERT_EQ(h.at({2, 0}).size(), 1u);
  EXPECT_EQ(h.at({2, 0})[0].size(), 8u);
  EXPECT_EQ(east.credits(), depth);
  EXPECT_EQ(h.net->router({1, 0}).be_output(kEastPort).credits(), depth);
  EXPECT_EQ(h.net->na({0, 0}).be_credits(), depth);
  EXPECT_EQ(h.be({0, 0}).flits_routed(), 8u);
  EXPECT_EQ(h.be({0, 0}).packets_routed(), 1u);
}

TEST(BeRouterWiring, RoutingIsPacedAtTheRouteCycle) {
  BeFixture h;
  Router& r = h.net->router({1, 1});
  BeRouter& be = r.be_router();
  const sim::Time cycle = r.delays().be_route_cycle;
  const BeHeader header = h.net->be_header({1, 1}, {2, 1});
  Flit hf;
  hf.data = header.word;
  hf.thdr = header.table;
  Flit last;
  last.eop = true;
  const sim::Time arb_cycle = r.delays().arb_cycle;
  // A header and three flits queued at once on the local input, bound
  // East. The header is routed at once; every later flit waits for the
  // previous flit's route cycle. The first flit takes the link when it
  // reaches East's two-deep output lane, so the first three flits are
  // paced by the route cycle alone.
  const sim::Time t0 = h.sim.now();
  be.push_input(kLocalPort, Flit{hf});
  be.push_input(kLocalPort, Flit{});
  be.push_input(kLocalPort, Flit{});
  be.push_input(kLocalPort, Flit{last});
  EXPECT_EQ(be.flits_routed(), 1u);
  for (unsigned k = 1; k <= 2; ++k) {
    h.sim.run_until(t0 + k * cycle - 1);
    EXPECT_EQ(be.flits_routed(), k) << "before route cycle " << k;
    h.sim.run_until(t0 + k * cycle);
    EXPECT_EQ(be.flits_routed(), k + 1) << "at route cycle " << k;
  }
  // The second and third flits then fill the lane while the link stage
  // recovers: the last flit waits for the next grant, one arb_cycle
  // after the first.
  ASSERT_GT(t0 + cycle + arb_cycle, t0 + 3 * cycle);
  h.sim.run_until(t0 + cycle + arb_cycle - 1);
  EXPECT_EQ(be.flits_routed(), 3u);
  h.sim.run_until(t0 + cycle + arb_cycle);
  EXPECT_EQ(be.flits_routed(), 4u);
  h.sim.run();
  EXPECT_EQ(be.packets_routed(), 1u);
  EXPECT_EQ(be.flits_to(kEastPort), 4u);
  ASSERT_EQ(h.at({2, 1}).size(), 1u);
  EXPECT_EQ(h.at({2, 1})[0].size(), 4u);
}

TEST(BeRouterWiring, InputBufferOverflowNamesTheBuffer) {
  BeFixture h;
  Router& r = h.net->router({1, 1});
  const BeHeader header = h.net->be_header({1, 1}, {2, 1});
  Flit hf;
  hf.data = header.word;
  hf.thdr = header.table;
  // Pushed without credit: the header is routed at once, the next four
  // fill the 4-deep local input, the sixth overflows it.
  r.be_router().push_input(kLocalPort, Flit{hf});
  for (int i = 0; i < 4; ++i) r.be_router().push_input(kLocalPort, Flit{});
  try {
    r.be_router().push_input(kLocalPort, Flit{});
    FAIL() << "overflow not detected";
  } catch (const mango::ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BE input buffer overflow at " + r.name() + ".beL.vc0"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(r.be_router().input(kLocalPort).size(), 4u);
  EXPECT_EQ(r.be_router().input(kWestPort).size(), 0u);
}

}  // namespace
}  // namespace mango::noc
