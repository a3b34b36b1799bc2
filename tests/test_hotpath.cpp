// Hot-path allocation contract (see DESIGN.md "hot-path budget"): the
// pooled packet path performs no heap allocation at steady state. After
// warm-up, assembling, injecting, delivering and recycling BE packets
// touches only pooled/slab storage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

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

}  // namespace
