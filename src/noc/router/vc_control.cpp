#include "noc/router/vc_control.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

VcControlModule::VcControlModule(sim::Simulator& sim,
                                 const ConnectionTable& table,
                                 const StageDelays& delays)
    : sim_(sim), table_(table), delays_(delays) {
  events::install(sim_);
}

void VcControlModule::signal(VcBufferId buf) {
  const ReverseEntry entry = table_.reverse(buf);  // throws if unprogrammed
  ++signals_;
  if (entry.in_port == kLocalPort) {
    MANGO_ASSERT(static_cast<bool>(local_out_), "no local reverse sink wired");
    // The NA sits next to the router: local wire + flow box re-arm in
    // one event; the box completes directly at the analytically
    // computed ready instant.
    if (local_fold_ > 0) {
      sim_.note_folded_hop_at(sim_.now() + delays_.na_link_fwd);
    }
    sim::TypedEvent ev{};
    ev.op = events::kOpVcLocalReverse;
    ev.a = static_cast<LocalIfaceIdx>(entry.wire);
    ev.p0 = this;
    sim_.after_typed(delays_.na_link_fwd + local_fold_, ev);
    return;
  }
  MANGO_ASSERT(static_cast<bool>(network_out_), "no network reverse sink wired");
  // The attached link charges the unlock-wire delay.
  network_out_(entry.in_port, entry.wire);
}

}  // namespace mango::noc
