// E14 — substrate performance: google-benchmark microbenchmarks of the
// event kernel, handshake channels and a full router hop. These bound
// how much simulated traffic the reproduction can run per wall second.
// BENCH_sim_kernel.json tracks the events/sec figures release over
// release.
#include <benchmark/benchmark.h>

#include <functional>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/channel.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) {
      simulator.at(i, [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

/// Self-scheduling chain: the pattern every clockless stage uses. The
/// 24-byte functor fits the kernel's inline capture budget — exactly the
/// per-flit situation in the model.
struct ChainFn {
  sim::Simulator* simulator;
  std::uint64_t* count;
  std::uint64_t limit;
  void operator()() const {
    if (++*count < limit) simulator->after(100, *this);
  }
};

void BM_EventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t count = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    simulator.after(100, ChainFn{&simulator, &count, limit});
    simulator.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventChain)->Arg(100000);

/// Interleaved near/far horizon traffic: stresses the calendar queue's
/// overflow heap and wheel migration (timeouts and packet interarrivals
/// mixed with handshake-scale delays, 64 concurrent event chains).
void BM_EventMixedHorizon(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Rng rng(7);
    std::uint64_t count = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    std::function<void()> self = [&simulator, &rng, &count, limit, &self] {
      if (++count >= limit) return;
      const bool far = rng.next_below(8) == 0;
      simulator.after(far ? 1000000 + rng.next_below(5000000)
                          : 60 + rng.next_below(2000),
                      self);
    };
    for (int i = 0; i < 64; ++i) {
      simulator.after(rng.next_below(2000), self);
    }
    simulator.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventMixedHorizon)->Arg(100000);

void BM_ChannelHandshakes(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Channel<int> ch(simulator, sim::ChannelTiming{400, 250});
    std::uint64_t received = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    ch.set_receiver([&](int&&) {
      ++received;
      ch.ack();
    });
    ch.set_on_ready([&] {
      if (received < limit) ch.send(static_cast<int>(received));
    });
    ch.send(0);
    simulator.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelHandshakes)->Arg(50000);

void BM_GsFlitHop(benchmark::State& state) {
  // Full-stack cost of one GS flit across one router hop.
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimContext ctx;
    MeshConfig mesh{2, 1, RouterConfig{}, 1};
    Network net(ctx, mesh);
    ConnectionManager mgr(net, NodeId{0, 0});
    const Connection& c = mgr.open_direct({0, 0}, {1, 0});
    std::uint64_t delivered = 0;
    // Passive measurement sink (the attach_hub style): the NA folds the
    // final wire hop instead of scheduling a handler event per flit.
    net.na({1, 0}).set_gs_handler_timed(
        [&](LocalIfaceIdx, Flit&&, sim::Time) { ++delivered; });
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) {
      net.na({0, 0}).gs_send(c.src_iface, Flit{});
    }
    state.ResumeTiming();
    ctx.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GsFlitHop)->Arg(10000);

void BM_RngDraws(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
