// The non-blocking switching module (Section 4.2, Fig 5).
//
// Incoming flits carry 5 steering bits appended at the previous hop. A
// split module per input port consumes the first 3 bits to direct the
// flit to one of two 4x4 half-switches at an output port (or to the BE
// router); the half-switch consumes the remaining 2 bits to select one of
// four VC buffers. There is no arbitration anywhere: a VC buffer belongs
// to at most one connection, so no two flits ever contend for the same
// path — switch traversal latency is constant.
//
// Split-code map (documented reconstruction, see DESIGN.md): from a
// network input port p the reachable destinations are the 3 other network
// output ports (2 halves each), the local output port (its 4 GS
// interfaces form one half-switch) and the BE router — exactly 8 codes.
// From the local input the 4 network output ports x 2 halves use all 8
// codes (locally injected BE traffic enters the BE router through the
// local port's dedicated BE interface instead).
#pragma once

#include <array>
#include <cstdint>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "sim/time.hpp"

namespace mango::noc {

class SwitchingModule {
 public:
  /// Destination selected by a 3-bit split code.
  struct Dest {
    enum class Kind : std::uint8_t { kInvalid, kGs, kBe } kind = Kind::kInvalid;
    PortIdx out = 0;       ///< GS: output port (network or kLocalPort)
    std::uint8_t half = 0; ///< GS: which 4x4 half-switch
  };

  SwitchingModule(const RouterConfig& cfg, const StageDelays& delays);

  /// Decode of one flit's steering bits: where the flit lands and the
  /// stage delay it pays on the way (split, plus switch and unsharebox
  /// latch for GS). The switch has no arbitration, so the decode is all
  /// there is to it.
  struct PlannedHop {
    bool to_be = false;
    VcBufferId target{};        ///< GS destination (valid when !to_be)
    sim::Time stage_delay = 0;  ///< split (+ switch + unshare for GS)
  };

  /// Decodes the steering bits of a flit entering on `in_port`. The
  /// owning Router lands a link flit at the returned destination after
  /// the stage delay; the coalesced transfer path decodes at send time
  /// (the split map is static) and folds the stage delay into the
  /// arrival timestamp. Counts nothing. ModelError on an unmapped split
  /// code or a nonexistent VC buffer.
  PlannedHop plan(PortIdx in_port, SteerBits steer) const;

  /// Counts one flit's traversal of the switch (on arrival, or on a
  /// coalesced transfer's delivery).
  void note_routed() { ++flits_routed_; }

  /// Computes the steering bits a previous hop must append so that a flit
  /// entering on `in_port` lands in VC buffer `dest`. ModelError if the
  /// destination is unreachable from that input (e.g. a U-turn).
  SteerBits encode_gs(PortIdx in_port, VcBufferId dest) const;

  /// The split code that routes a flit entering on network port `in_port`
  /// to the BE router.
  std::uint8_t be_code(PortIdx in_port) const;

  /// Split-map introspection (tests / documentation).
  Dest decode(PortIdx in_port, std::uint8_t split_code) const;

  /// Flits routed (activity counter for the power model).
  std::uint64_t flits_routed() const { return flits_routed_; }

 private:
  static constexpr unsigned kCodes = 1u << kSteerSplitBits;
  static constexpr unsigned kVcsPerHalf = 1u << kSteerVcBits;

  const StageDelays& delays_;
  unsigned vcs_per_port_;
  unsigned local_ifaces_;
  std::array<std::array<Dest, kCodes>, kNumPorts> map_{};
  std::uint64_t flits_routed_ = 0;
};

}  // namespace mango::noc
