// Link access arbiter (Section 4.4) — "the key element in providing GS".
//
// The media path beyond the arbiter is non-blocking, so the arbiter alone
// decides the guarantees a connection gets. The scheme is pluggable:
//
//  * kFairShare — a round-robin ring over the V VCs. Combined with the
//    share-based one-flit-in-media rule, any persistently requesting VC
//    wins at least one of every V grants: a hard >= 1/V bandwidth
//    guarantee; unused shares redistribute automatically.
//  * kStaticPriority — lower VC index wins. With share-based control this
//    realizes ALG-style latency guarantees (ref [6]): VC i waits at most
//    one in-flight flit of each higher-priority VC per grant.
//  * kUnregulated — static priority intended for credit-based VC control:
//    models priority-QoS clockless routers that improve latency for some
//    VCs but give no hard guarantees (low VCs can starve).
//
// BE traffic merges onto the link per BePolicy: by default it only takes
// link cycles no GS VC requests (kIdleShares), keeping GS fully
// independent of BE load; kEqualShare lets BE contend as one extra
// round-robin requester (ablation).
//
// Timing: a grant occupies the link-output stage for `arb_cycle` ps; the
// reciprocal of arb_cycle is the paper's per-port speed (515 MHz worst
// case). The arbiter is the decision unit only: its owning Router raises
// the request lines, delivers each grant to the granted VC buffer or BE
// output stage by a direct call, and schedules the stage's recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/ids.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

class LinkArbiter {
 public:
  LinkArbiter(const RouterConfig& cfg, std::string name);

  /// Idempotent request-line updates. A VC requests while it has a head
  /// flit and its flow-control box admits; the router keeps these lines
  /// in sync with that condition. Returns true when the line was just
  /// raised: the owner then attempts a grant.
  bool set_request_gs(VcIdx vc, bool requesting) {
    MANGO_ASSERT(vc < vcs_, "request for nonexistent VC on " + name_);
    const std::uint32_t bit = 1u << vc;
    if (((gs_mask_ & bit) != 0) == requesting) return false;
    gs_mask_ ^= bit;
    return requesting;
  }
  bool set_request_be(bool requesting) {
    if (be_req_ == requesting) return false;
    be_req_ = requesting;
    return requesting;
  }

  bool request_gs(VcIdx vc) const {
    MANGO_ASSERT(vc < vcs_, "request query for nonexistent VC on " + name_);
    return ((gs_mask_ >> vc) & 1u) != 0;
  }
  bool request_be() const { return be_req_; }

  /// Grants the link-output stage: the granted GS VC, vcs() for BE, or
  /// -1 when the stage is busy or nothing is eligible. A grant holds the
  /// stage until complete_cycle() (the owner schedules that one
  /// arbitration cycle later).
  int grant();
  /// The link-output stage recovered; the owner re-attempts a grant.
  void complete_cycle() { busy_ = false; }

  unsigned vcs() const { return vcs_; }

  /// Grant counters (fairness measurements).
  std::uint64_t grants_gs(VcIdx vc) const { return gs_grants_.at(vc); }
  std::uint64_t grants_be() const { return be_grants_; }
  std::uint64_t total_grants() const { return total_grants_; }

  const std::string& name() const { return name_; }

 private:
  /// Returns the granted GS VC, or V for BE, or -1 if nothing eligible.
  int pick() const;

  ArbiterKind kind_;
  BePolicy be_policy_;
  unsigned vcs_;
  /// Raised GS request lines, one bit per VC (V <= 8): the grant scan is
  /// a rotate + count-trailing-zeros instead of a per-slot loop.
  std::uint32_t gs_mask_ = 0;
  bool be_req_ = false;
  bool busy_ = false;
  unsigned rr_next_ = 0;  ///< fair-share: next ring position (0..V = BE slot)
  std::uint64_t be_grants_ = 0;
  std::uint64_t total_grants_ = 0;
  std::vector<std::uint64_t> gs_grants_;
  std::string name_;
};

}  // namespace mango::noc
