// Typed hot-path event records for the NoC model.
//
// The dominant per-flit events — link transfers, switching traversals,
// BE route cycles, arbiter/stage recoveries, credit and reverse
// signals, source fires — are scheduled as sim::TypedEvent records (a
// one-byte opcode plus packed args filling the event node's 64-byte
// capture area) and dispatched through the single switch in
// dispatch_event(), entering the component models through non-virtual
// entry points. Cold/control events (OCP transactions, churn control,
// failure hooks) keep the type-erased InlineFunction fallback.
//
// Every emitting component registers the switch idempotently from its
// constructor (install()), so standalone component tests work without a
// Network.
#pragma once

#include <cstring>

#include "noc/common/flit.hpp"
#include "sim/simulator.hpp"

namespace mango::noc::events {

/// Opcodes. 0 is the kernel-reserved callback fallback; everything else
/// documents its packed-argument convention next to the name.
enum Op : std::uint8_t {
  kOpCallback = 0,
  kOpLinkFlit,        ///< p0=Router*, a=in_port; payload LinkFlit
  kOpGsDeliverPtr,    ///< p0=Router*, p1=VcBuffer*; payload Flit
  kOpReverse,         ///< p0=Router*, a=out_port, b=wire
  kOpReverseDone,     ///< p0=Router*, a=out_port, b=wire (coalesced)
  kOpBeCredit,        ///< p0=Router*, a=out_port, b=be_vc
  kOpBeRouteDone,     ///< p0=BeRouter*, a=out; payload Flit
  kOpArbRearm,        ///< p0=Router*, a=port
  kOpVcAdvance,       ///< p0=VcBuffer*
  kOpSwitchGs,        ///< p0=Router*, a=port, b=vc; payload Flit
  kOpSwitchBe,        ///< p0=BeRouter*, a=in_port; payload Flit
  kOpGsReqRecheck,    ///< p0=Router*, a=port, b=vc
  kOpLocalBeCredit,   ///< p0=Router*, a=be_vc
  kOpNaGsRecover,     ///< p0=NetworkAdapter*, a=iface
  kOpNaGsHandoff,     ///< p0=NetworkAdapter*, a=iface; payload Flit
  kOpNaBeInject,      ///< p0=NetworkAdapter*; payload Flit
  kOpNaBeRecover,     ///< p0=NetworkAdapter*
  kOpGsSourceTick,    ///< p0=GsStreamSource*
  kOpBeSourceInject,  ///< p0=BeTrafficSource*
  kOpVcLocalReverse,  ///< p0=VcControlModule*, a=iface
};

/// The typed-event switch (the only TypedDispatcher in the model).
void dispatch_event(sim::TypedEvent& ev);

/// Registers the switch with `sim`. Idempotent; every emitting
/// component calls this from its constructor.
inline void install(sim::Simulator& sim) {
  sim.set_typed_dispatcher(&dispatch_event);
}

// --- payload marshalling (trivially copyable blobs, by memcpy) ---

static_assert(sizeof(Flit) <= sizeof(sim::TypedEvent::payload),
              "Flit must fit the typed payload area");
static_assert(sizeof(LinkFlit) <= sizeof(sim::TypedEvent::payload),
              "LinkFlit must fit the typed payload area");

inline void store_flit(sim::TypedEvent& ev, const Flit& f) {
  std::memcpy(ev.payload, &f, sizeof(Flit));
}
inline Flit load_flit(const sim::TypedEvent& ev) {
  Flit f;
  std::memcpy(&f, ev.payload, sizeof(Flit));
  return f;
}
inline void store_link_flit(sim::TypedEvent& ev, const LinkFlit& lf) {
  std::memcpy(ev.payload, &lf, sizeof(LinkFlit));
}
inline LinkFlit load_link_flit(const sim::TypedEvent& ev) {
  LinkFlit lf;
  std::memcpy(&lf, ev.payload, sizeof(LinkFlit));
  return lf;
}

}  // namespace mango::noc::events
