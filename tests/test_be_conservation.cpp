// BE flit and credit conservation: after uniform BE traffic stops and the
// fabric runs to idle, every credit is back where it started, every BE
// buffer is empty and every generated packet has been delivered. A lost
// or duplicated credit return, or a flit stranded in a buffer, breaks
// one of these equalities.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/network/network.hpp"
#include "noc/router/be_router.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct ConservationCase {
  const char* name;
  TopologySpec topology;
  unsigned be_vcs;
  sim::Time interarrival_ps;
};

class BeConservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(BeConservation, CreditsBuffersAndPacketsBalanceAfterDrain) {
  const ConservationCase& c = GetParam();
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = c.topology;
  cfg.router.be_vcs = c.be_vcs;
  Network net(ctx, cfg);
  const Topology& topo = net.topology();
  const unsigned depth = cfg.router.be_buffer_depth;

  auto sources = start_uniform_be(net, c.interarrival_ps, 4, /*seed=*/7);
  net.run_until(2'000'000);  // 2 us of traffic
  for (auto& s : sources) s->stop();
  ctx.sim().run();  // drain to idle

  std::uint64_t generated = 0;
  for (const auto& s : sources) generated += s->generated();
  std::uint64_t delivered = 0;
  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const NodeId n = topo.node_at(i);
    Router& r = net.router(n);
    const NetworkAdapter& na = net.na(n);
    delivered += na.be_packets_received();
    routed += r.be_router().flits_routed();
    for (BeVcIdx vc = 0; vc < c.be_vcs; ++vc) {
      EXPECT_EQ(na.be_credits(vc), depth) << r.name() << " NA lane " << +vc;
      for (PortIdx p = 0; p < kNumPorts; ++p) {
        EXPECT_EQ(r.be_router().input(p, vc).size(), 0u)
            << r.name() << " input " << port_name(p) << " vc " << +vc;
      }
      for (PortIdx p = 0; p < kNumDirections; ++p) {
        if (r.link(p) == nullptr) continue;
        EXPECT_EQ(r.be_output(p).credits(vc), depth)
            << r.name() << " output " << port_name(p) << " vc " << +vc;
      }
    }
  }
  EXPECT_GT(generated, 100u);
  EXPECT_GT(routed, 0u);
  EXPECT_EQ(delivered, generated);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, BeConservation,
    ::testing::Values(
        ConservationCase{"mesh8x8_vc1", TopologySpec::mesh(8, 8), 1, 20000},
        ConservationCase{"torus4x4_vc2_dateline", TopologySpec::torus(4, 4), 2,
                         10000}),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mango::noc
