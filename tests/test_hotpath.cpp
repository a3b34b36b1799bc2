// Hot-path allocation contract (see DESIGN.md "hot-path budget"): the
// pooled packet path performs no heap allocation at steady state. After
// warm-up, assembling, injecting, delivering and recycling BE packets
// touches only pooled/slab storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "noc/network/network.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

// --- global allocation counter (for the zero-allocation assertion) ---------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// --- steady-state zero-allocation on the pooled packet path --------------

TEST(HotpathAllocation, PooledBePathIsAllocationFreeAtSteadyState) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 2, RouterConfig{}, 1};
  Network net(ctx, mesh);
  sim::VectorPool<Flit>& pool = ctx.pools().vectors<Flit>();
  std::uint64_t delivered = 0;
  net.na({1, 1}).set_be_handler_timed([&](BePacket&& pkt, sim::Time) {
    ++delivered;
    pool.release(std::move(pkt.flits));
  });
  const BeHeader header = net.be_header({0, 0}, {1, 1});
  const std::uint32_t payload[4] = {1, 2, 3, 4};

  const auto inject_and_run = [&](std::uint64_t packets) {
    std::uint64_t sent = 0;
    const std::uint64_t target = delivered + packets;
    while (delivered < target) {
      while (sent < packets && net.na({0, 0}).be_queue_flits() < 32) {
        net.na({0, 0}).send_be_packet(
            make_be_packet(pool.acquire(), header, payload, 4, 7));
        ++sent;
      }
      if (!ctx.sim().step()) break;
    }
  };

  // Warm-up: grow the pool, the NA/BE rings, the event slabs and the
  // fold ledger to their steady-state capacities.
  inject_and_run(600);
  ASSERT_EQ(delivered, 600u);

  const std::uint64_t before = g_allocs.load();
  inject_and_run(400);
  const std::uint64_t after = g_allocs.load();
  ASSERT_EQ(delivered, 1000u);
  EXPECT_EQ(after - before, 0u)
      << "steady-state BE injection allocated " << (after - before)
      << " times over 400 packets";

  // The pure assemble/recycle cycle is allocation-free on its own too.
  const std::uint64_t before2 = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    BePacket pkt = make_be_packet(pool.acquire(), header, payload, 4, 7);
    pool.release(std::move(pkt.flits));
  }
  EXPECT_EQ(g_allocs.load() - before2, 0u);
}

/// Drives BE packets from every node of `net`, keeping each NA queue
/// topped up to `queue_flits`; node s's k-th packet goes to node
/// dst(s, k) on BE VC k & 1.
/// Returns once `per_node` packets per node have been delivered.
/// `sent` is caller-owned scratch (one counter per node) so this helper
/// itself allocates nothing.
template <typename Dst>
bool drive_be(Network& net, sim::VectorPool<Flit>& pool,
              std::uint64_t& delivered, std::vector<std::uint64_t>& sent,
              std::size_t queue_flits, std::uint64_t per_node, Dst dst) {
  const Topology& topo = net.topology();
  const std::size_t n = topo.node_count();
  const std::uint32_t payload[4] = {1, 2, 3, 4};
  const std::uint64_t target = delivered + per_node * n;
  std::fill(sent.begin(), sent.end(), 0);
  while (delivered < target) {
    for (std::size_t s = 0; s < n; ++s) {
      NetworkAdapter& na = net.na(topo.node_at(s));
      while (sent[s] < per_node && na.be_queue_flits() < queue_flits) {
        const std::uint64_t k = sent[s]++;
        const BeHeader h = net.be_header(topo.node_at(s), topo.node_at(dst(s, k)));
        na.send_be_packet(make_be_packet(pool.acquire(), h, payload, 4, 7),
                          static_cast<BeVcIdx>(k & 1));
      }
    }
    if (!net.ctx().sim().step()) break;
  }
  net.ctx().sim().run();  // settle the trailing credits and recoveries
  return delivered == target;
}

/// The same contract on a whole fabric, aimed at router storage: a 4x4
/// torus carrying BE packets between every pair of nodes (every port
/// and direction, both BE VCs, dateline promotions included). A first
/// torus sizes the context's pools, event slabs and fold ledger; a
/// second one warms its NAs (deeper queues than the measured run keeps)
/// with traffic to the East neighbour only.
/// Its North, South and West outputs and their downstream inputs are
/// then first used inside the measured window, so any router storage
/// grown on first use would show up as an allocation.
TEST(HotpathAllocation, TorusUniformBeOnBothVcsIsAllocationFree) {
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::torus(4, 4);
  cfg.router.be_vcs = 2;
  sim::VectorPool<Flit>& pool = ctx.pools().vectors<Flit>();
  std::uint64_t delivered = 0;
  const auto make_net = [&] {
    auto net = std::make_unique<Network>(ctx, cfg);
    for (std::size_t i = 0; i < net->topology().node_count(); ++i) {
      net->na(net->topology().node_at(i))
          .set_be_handler_timed([&](BePacket&& pkt, sim::Time) {
            ++delivered;
            pool.release(std::move(pkt.flits));
          });
    }
    return net;
  };
  const std::size_t n = 16;
  std::vector<std::uint64_t> sent(n, 0);
  const auto all_pairs = [n](std::size_t s, std::uint64_t k) {
    return (s + 1 + k % (n - 1)) % n;
  };
  const auto east = [](std::size_t s, std::uint64_t) {
    return (s / 4) * 4 + (s + 1) % 4;
  };

  auto sizing = make_net();
  ASSERT_TRUE(drive_be(*sizing, pool, delivered, sent, 24, 150, all_pairs));
  auto net = make_net();
  ASSERT_TRUE(drive_be(*net, pool, delivered, sent, 40, 40, east));
  // One-hop traffic arrives on a single VC per node (VC 1 only across
  // the wrap), so also warm every NA reassembly lane with one packet per
  // VC handed over directly.
  for (std::size_t i = 0; i < n; ++i) {
    for (int vc = 0; vc < 2; ++vc) {
      Flit f;
      f.bevc = vc == 1;
      for (int k = 0; k < 5; ++k) {
        f.eop = k == 4;
        net->router(net->topology().node_at(i)).deliver_local_be(Flit{f});
      }
    }
  }
  ASSERT_EQ(net->router({0, 0}).be_router().flits_to(port_of(Direction::kSouth)),
            0u);

  const std::uint64_t before = g_allocs.load();
  ASSERT_TRUE(drive_be(*net, pool, delivered, sent, 24, 150, all_pairs));
  const std::uint64_t after = g_allocs.load();
  EXPECT_GT(net->router({0, 0}).be_router().flits_to(port_of(Direction::kSouth)),
            0u);
  EXPECT_EQ(after - before, 0u)
      << "steady-state torus BE traffic allocated " << (after - before)
      << " times over " << 150 * n << " packets";
}

}  // namespace
