// The best-effort router (Section 5, Fig 7).
//
// Connection-less source routing: the packet header's two MSBs select one
// of the four network output ports; a code pointing "back the way the
// packet came" delivers it to the local port, where two further bits
// select the network adapter or the GS programming interface. The header
// is rotated left two bits per consumed hop. Packets are variable length
// with an EOP control bit; each output arbitrates fairly (round-robin)
// among contending inputs and holds the grant until EOP, keeping packet
// coherency (wormhole). Input buffers use credit-based VC control.
//
// Headers flagged THDR (the reconstruction's scalable scheme for routes
// beyond the paper's 15-code budget, packet.hpp) carry the destination's
// dense node index instead of move codes; the out port comes from an
// O(1) lookup in the shared RouteTable armed by enable_table_routing(),
// and only the routing-phase bit evolves per hop.
//
// The paper reserves one flit control bit "to indicate one of two BE
// VCs"; with RouterConfig::be_vcs = 2 this implementation activates it:
// every input port gets one buffer per BE VC, wormhole state is kept per
// (input, VC), and packets on different VCs interleave freely — a packet
// stalled on one VC no longer head-of-line-blocks the other.
//
// The BE router hands flits bound for the network to per-port BE output
// stages owned by the Router, which merge them onto the links through
// the link arbiters. Its wiring is fixed: outputs, local delivery and
// credit returns are direct calls into the owning Router, and its input
// rings sit in flit storage the Router sizes from RouterConfig.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class RouteTable;  // noc/network/routing.hpp
class Router;

/// Credit-controlled BE input FIFO (one per input port per BE VC): a
/// fixed ring of be_buffer_depth slots in the owning Router's storage.
using BeInputBuffer = sim::FixedRing<Flit>;

class BeRouter {
 public:
  /// Output indices: 0..3 = network ports (Direction values), then local.
  static constexpr unsigned kOutLocalNa = 4;
  static constexpr unsigned kOutProgramming = 5;
  static constexpr unsigned kNumOutputs = 6;

  /// Part of `owner` (constructed as its member): routed flits go to the
  /// owner's BE output stages, local NA interface and programming
  /// interface, and freed input slots return their credits through it.
  BeRouter(Router& owner, const RouterConfig& cfg, const StageDelays& delays);

  /// Flit slots one BE router's input rings need (kNumPorts * be_vcs *
  /// be_buffer_depth).
  static std::size_t input_slots(const RouterConfig& cfg) {
    return static_cast<std::size_t>(kNumPorts) * cfg.be_vcs *
           cfg.be_buffer_depth;
  }
  /// Binds the input rings to `slots` (input_slots() flits, owned by the
  /// Router). Called once during the Router's construction.
  void bind_inputs(Flit* slots, unsigned depth);

  /// Activates the dateline VC-class rule for wrap topologies
  /// (torus/ring): a flit entering a dimension travels on BE VC 0 and is
  /// promoted to VC 1 when forwarded out a port marked as a dateline
  /// (its bevc bit is rewritten on the way to the output stage). The
  /// class is inherited while the packet continues within one dimension.
  /// Requires be_vcs == 2. Never called on mesh/irregular networks —
  /// flits then keep their injected VC (the paper's baseline).
  void set_vc_classes(const std::array<bool, kNumDirections>& dateline);

  /// Arms the table-routed header scheme: THDR headers resolve their
  /// next out-port through `table` (this router is dense node index
  /// `self_idx`). Wired by Network after assembly on every fabric with
  /// a materialized RouteTable; routers of non-dense fabrics reject
  /// THDR flits (those fabrics never emit them).
  void enable_table_routing(const RouteTable* table, std::size_t self_idx);

  /// Flit arriving on an input port (typed-dispatch entry for the
  /// switching module's BE code, or the NA's local BE interface); its
  /// bevc bit selects the VC. Overflow means the upstream violated
  /// credit flow control and raises ModelError.
  void push_input(PortIdx in, Flit&& f);

  /// Output stages call this when they free a slot.
  void notify_output_ready(unsigned out);

  /// Typed-dispatch entry: the route cycle scheduled by try_route()
  /// completes (flit handed to the output, register recovered).
  void complete_route_cycle(unsigned out, Flit&& f);

  unsigned be_vcs() const { return be_vcs_; }
  const BeInputBuffer& input(PortIdx in, BeVcIdx vc = 0) const {
    MANGO_ASSERT(in < kNumPorts && vc < be_vcs_, "BE input out of range");
    return inputs_[in][vc];
  }

  std::uint64_t flits_routed() const { return flits_routed_; }
  std::uint64_t packets_routed() const { return packets_routed_; }
  std::uint64_t flits_to(unsigned out) const { return out_flits_.at(out); }

 private:
  static constexpr std::uint8_t kNoReg = 0xFF;

  struct InputState {
    /// Decoded output of the current packet (kNoReg until decoded).
    std::uint8_t target = kNoReg;
    bool awaiting_header = true;
    /// Output whose request mask currently holds this input's bit
    /// (kNoReg when none): the arbitration scan only visits inputs that
    /// actually have a head flit bound for the output.
    std::uint8_t reg_out = kNoReg;
  };
  struct OutputState {
    /// Wormhole grant holder per *outgoing* BE VC lane: the (input
    /// port, input VC) pair whose packet owns the lane. Keyed by the
    /// outgoing class because the dateline rule may map different input
    /// VCs onto one downstream lane, and packet contiguity must hold
    /// per downstream buffer.
    std::array<std::optional<std::pair<PortIdx, BeVcIdx>>, kMaxBeVcs>
        locked{};
    bool busy = false;   ///< mid routing cycle
    unsigned rr_next = 0;  ///< fair arbitration over (port, vc) pairs
    /// One bit per (input port, VC) slot with a head flit bound here.
    std::uint16_t req_mask = 0;
  };

  void on_input_head(PortIdx in, BeVcIdx vc);
  void try_route(unsigned out);
  /// May output `out` accept one more flit of outgoing BE VC `vc` now
  /// (the NA and programming interfaces always can).
  bool output_ready(unsigned out, BeVcIdx vc) const;
  /// "<router>.be<Port>.vc<N>", built only for diagnostics.
  std::string buffer_name(PortIdx in, BeVcIdx vc) const;
  void register_req(PortIdx in, BeVcIdx vc, unsigned out);
  void clear_req(PortIdx in, BeVcIdx vc);
  /// Decodes the routing target of a header flit arriving on `in`
  /// (either header scheme, selected by the flit's THDR bit).
  unsigned decode_target(PortIdx in, const Flit& head) const;
  /// Outgoing BE VC class of a flit on input VC `cur` forwarded from
  /// `in` to `out` (identity unless set_vc_classes() armed the rule).
  BeVcIdx out_vc_class(PortIdx in, unsigned out, BeVcIdx cur) const;

  Router& router_;
  sim::Simulator& sim_;
  const StageDelays& delays_;
  unsigned be_vcs_;
  bool vc_classes_enabled_ = false;
  std::array<bool, kNumDirections> dateline_{};
  const RouteTable* route_table_ = nullptr;  ///< THDR next-hop lookups
  std::uint32_t self_idx_ = 0;               ///< this router's node index
  std::array<std::array<BeInputBuffer, kMaxBeVcs>, kNumPorts> inputs_{};
  std::array<std::array<InputState, kMaxBeVcs>, kNumPorts> in_state_{};
  std::array<OutputState, kNumOutputs> out_state_{};
  std::array<std::uint64_t, kNumOutputs> out_flits_{};
  std::uint64_t flits_routed_ = 0;
  std::uint64_t packets_routed_ = 0;
};

}  // namespace mango::noc
