// The VC control module (Section 4.3).
//
// Establishes the reverse control channels: each VC buffer owns one
// unlock wire, and the module circuit-switches it onto the correct
// input-port unlock output according to the programmed reverse map — a
// non-blocking (P*V) x (P*V) switch realized in the paper as one
// (P-1)*V-input multiplexer per wire. Because the mapping is static
// while a connection is in use, the module is a pure lookup + dispatch:
// no arbitration, no state beyond the connection table.
//
// The same path carries credit returns when a credit-based scheme is
// configured (the two schemes share the wires, ref [5]).
#pragma once

#include <cstdint>

#include "noc/common/config.hpp"
#include "noc/common/ids.hpp"
#include "noc/router/connection_table.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class VcControlModule {
 public:
  /// Reverse signal leaving through a network input port's unlock output
  /// (the attached link forwards it to the upstream router and charges
  /// the wire delay). Inline callback: unlock wires toggle once per flit.
  using NetworkOut = sim::InlineFunction<void(PortIdx in_port, VcIdx wire)>;

  /// Reverse signal to the local NA (first hop of a connection): the
  /// NA's flow box completes its re-arm when this fires.
  using LocalOut = sim::InlineFunction<void(LocalIfaceIdx iface)>;

  VcControlModule(sim::Simulator& sim, const ConnectionTable& table,
                  const StageDelays& delays);

  void set_network_out(NetworkOut out) { network_out_ = std::move(out); }
  /// Local reverse path: the wire event charges `fold_delay` (the NA
  /// flow box's re-arm) on top of the local wire and `out` completes the
  /// box directly — one event instead of two.
  void set_local_out(LocalOut out, sim::Time fold_delay) {
    local_out_ = std::move(out);
    local_fold_ = fold_delay;
  }

  /// Dispatches the reverse signal of VC buffer `buf` through the switch.
  /// ModelError if the buffer has no programmed reverse entry (a flit
  /// reached a buffer whose control channel was never set up).
  void signal(VcBufferId buf);

  /// Signals dispatched (activity counter for the power model).
  std::uint64_t signals() const { return signals_; }

  /// Typed-dispatch entry: a local reverse wire toggles at the NA after
  /// the wire delay plus the folded re-arm.
  void deliver_local(LocalIfaceIdx iface) { local_out_(iface); }

 private:
  sim::Simulator& sim_;
  const ConnectionTable& table_;
  const StageDelays& delays_;
  NetworkOut network_out_;
  LocalOut local_out_;
  sim::Time local_fold_ = 0;
  std::uint64_t signals_ = 0;
};

}  // namespace mango::noc
