#include "noc/router/arbiter.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace mango::noc {

LinkArbiter::LinkArbiter(const RouterConfig& cfg, std::string name)
    : kind_(cfg.arbiter),
      be_policy_(cfg.be_policy),
      vcs_(cfg.vcs_per_port),
      gs_grants_(vcs_, 0),
      name_(std::move(name)) {}

int LinkArbiter::pick() const {
  switch (kind_) {
    case ArbiterKind::kFairShare: {
      // Round-robin ring; with kEqualShare BE occupies one extra slot.
      // The scan is a rotate + count-trailing-zeros over the request
      // bits — identical winner to the per-slot loop it replaces.
      const unsigned slots =
          be_policy_ == BePolicy::kEqualShare ? vcs_ + 1 : vcs_;
      std::uint32_t m = gs_mask_;
      if (be_policy_ == BePolicy::kEqualShare && be_req_) m |= 1u << vcs_;
      if (m != 0) {
        const unsigned r = rr_next_;
        const std::uint32_t rot = (m >> r) | (m << (slots - r));
        const unsigned s =
            (r + static_cast<unsigned>(__builtin_ctz(rot))) % slots;
        return static_cast<int>(s);
      }
      if (be_policy_ == BePolicy::kIdleShares && be_req_) {
        return static_cast<int>(vcs_);
      }
      return -1;
    }
    case ArbiterKind::kStaticPriority:
    case ArbiterKind::kUnregulated: {
      if (gs_mask_ != 0) return __builtin_ctz(gs_mask_);
      // BE is the lowest priority under either BE policy.
      if (be_req_) return static_cast<int>(vcs_);
      return -1;
    }
  }
  return -1;
}

int LinkArbiter::grant() {
  if (busy_) return -1;
  const int sel = pick();
  if (sel < 0) return -1;
  busy_ = true;
  ++total_grants_;
  if (sel == static_cast<int>(vcs_)) {
    ++be_grants_;
    if (kind_ == ArbiterKind::kFairShare &&
        be_policy_ == BePolicy::kEqualShare) {
      rr_next_ = 0;  // BE slot is the last ring position; wrap
    }
  } else {
    ++gs_grants_[static_cast<unsigned>(sel)];
    if (kind_ == ArbiterKind::kFairShare) {
      const unsigned slots =
          be_policy_ == BePolicy::kEqualShare ? vcs_ + 1 : vcs_;
      rr_next_ = (static_cast<unsigned>(sel) + 1) % slots;
    }
  }
  return sel;
}

}  // namespace mango::noc
