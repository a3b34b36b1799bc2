#include "noc/common/events.hpp"

#include "noc/na/network_adapter.hpp"
#include "noc/router/be_router.hpp"
#include "noc/router/router.hpp"
#include "noc/router/vc_buffer.hpp"
#include "noc/router/vc_control.hpp"
#include "noc/traffic/generator.hpp"
#include "sim/assert.hpp"

namespace mango::noc::events {

void dispatch_event(sim::TypedEvent& ev) {
  switch (ev.op) {
    case kOpLinkFlit:
      static_cast<Router*>(ev.p0)->receive_link_flit(
          static_cast<PortIdx>(ev.a), load_link_flit(ev));
      return;
    case kOpGsDeliverPtr: {
      Flit f = load_flit(ev);
      static_cast<Router*>(ev.p0)->deliver_gs_coalesced(
          static_cast<VcBuffer*>(ev.p1), std::move(f));
      return;
    }
    case kOpReverse:
      static_cast<Router*>(ev.p0)->receive_reverse(static_cast<PortIdx>(ev.a),
                                                   static_cast<VcIdx>(ev.b));
      return;
    case kOpReverseDone:
      static_cast<Router*>(ev.p0)->complete_reverse_coalesced(
          static_cast<PortIdx>(ev.a), static_cast<VcIdx>(ev.b));
      return;
    case kOpBeCredit:
      static_cast<Router*>(ev.p0)->receive_be_credit(
          static_cast<PortIdx>(ev.a), static_cast<BeVcIdx>(ev.b));
      return;
    case kOpBeRouteDone: {
      Flit f = load_flit(ev);
      static_cast<BeRouter*>(ev.p0)->complete_route_cycle(ev.a, std::move(f));
      return;
    }
    case kOpArbRearm:
      static_cast<Router*>(ev.p0)->complete_arb_cycle(
          static_cast<PortIdx>(ev.a));
      return;
    case kOpVcAdvance:
      static_cast<VcBuffer*>(ev.p0)->complete_advance();
      return;
    case kOpSwitchGs:
      static_cast<Router*>(ev.p0)
          ->vc_buffer(VcBufferId{static_cast<PortIdx>(ev.a),
                                 static_cast<VcIdx>(ev.b)})
          .accept_unshare(load_flit(ev));
      return;
    case kOpSwitchBe:
      static_cast<BeRouter*>(ev.p0)->push_input(static_cast<PortIdx>(ev.a),
                                                load_flit(ev));
      return;
    case kOpGsReqRecheck:
      static_cast<Router*>(ev.p0)->recheck_gs_request(
          static_cast<PortIdx>(ev.a), static_cast<VcIdx>(ev.b));
      return;
    case kOpLocalBeCredit:
      static_cast<Router*>(ev.p0)->deliver_local_be_credit(
          static_cast<BeVcIdx>(ev.a));
      return;
    case kOpNaGsRecover:
      static_cast<NetworkAdapter*>(ev.p0)->recover_gs_stage(
          static_cast<LocalIfaceIdx>(ev.a));
      return;
    case kOpNaGsHandoff: {
      Flit f = load_flit(ev);
      static_cast<NetworkAdapter*>(ev.p0)->handoff_gs(
          static_cast<LocalIfaceIdx>(ev.a), std::move(f));
      return;
    }
    case kOpNaBeInject:
      static_cast<NetworkAdapter*>(ev.p0)->inject_be_now(load_flit(ev));
      return;
    case kOpNaBeRecover:
      static_cast<NetworkAdapter*>(ev.p0)->recover_be_stage();
      return;
    case kOpGsSourceTick:
      static_cast<GsStreamSource*>(ev.p0)->tick();
      return;
    case kOpBeSourceInject:
      static_cast<BeTrafficSource*>(ev.p0)->inject();
      return;
    case kOpVcLocalReverse:
      static_cast<VcControlModule*>(ev.p0)->deliver_local(
          static_cast<LocalIfaceIdx>(ev.a));
      return;
    default:
      break;
  }
  MANGO_ASSERT(false, "typed event with an unknown opcode " +
                          std::to_string(static_cast<unsigned>(ev.op)));
}

}  // namespace mango::noc::events
