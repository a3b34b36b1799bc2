#include "noc/router/router.hpp"

#include "noc/common/events.hpp"
#include "noc/link/link.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

void BeOutputStage::wire(Router* owner, PortIdx port, unsigned be_vcs,
                         Flit* slots) {
  owner_ = owner;
  port_ = port;
  n_lanes_ = static_cast<std::uint8_t>(be_vcs);
  for (unsigned vc = 0; vc < be_vcs; ++vc) {
    lanes_[vc].fifo.bind(slots + vc * kDepth, kDepth);
  }
}

void BeOutputStage::set_downstream(unsigned credits_per_vc,
                                   std::uint8_t peer_split_code) {
  for (unsigned vc = 0; vc < n_lanes_; ++vc) {
    lanes_[vc].credits = credits_per_vc;
  }
  peer_split_code_ = peer_split_code;
}

void BeOutputStage::push(Flit&& f) {
  Lane& lane = lanes_[be_vc_of(f)];
  MANGO_ASSERT(!lane.fifo.full(), "BE output stage overflow");
  lane.fifo.push_back(f);
  update_request();
}

void BeOutputStage::on_grant() {
  // Round-robin over lanes that can send (flit present + credit).
  const unsigned n = n_lanes_;
  for (unsigned i = 0; i < n; ++i) {
    const unsigned l = (rr_ + i) % n;
    Lane& lane = lanes_[l];
    if (lane.fifo.empty() || lane.credits == 0) continue;
    rr_ = static_cast<std::uint8_t>((l + 1) % n);
    const Flit f = lane.fifo.pop_front();
    --lane.credits;
    ++flits_sent_;
    Link* link = owner_->link(port_);
    MANGO_ASSERT(link != nullptr, "BE flit granted onto an unattached port");
    link->send_be_flit(owner_, LinkFlit{SteerBits{peer_split_code_, 0}, f});
    update_request();
    // A freed slot may unblock the BE router.
    owner_->be_router().notify_output_ready(static_cast<unsigned>(port_));
    return;
  }
  model_fail("BE grant without an eligible lane");
}

void BeOutputStage::on_credit_return(BeVcIdx vc) {
  ++lanes_[vc].credits;
  update_request();
}

void BeOutputStage::update_request() {
  bool any = false;
  for (unsigned vc = 0; vc < n_lanes_; ++vc) {
    if (!lanes_[vc].fifo.empty() && lanes_[vc].credits > 0) {
      any = true;
      break;
    }
  }
  owner_->request_be(port_, any);
}

Router::Router(sim::SimContext& ctx, const RouterConfig& cfg, NodeId node,
               std::string name, sim::Arena* arena)
    : ctx_(ctx),
      sim_(ctx.sim()),
      cfg_(cfg),
      delays_(stage_delays(cfg.corner)),
      node_(node),
      name_(std::move(name)),
      table_(cfg),
      switching_(cfg, delays_),
      vc_control_(sim_, table_, delays_),
      prog_(table_),
      be_(*this, cfg, delays_),
      arena_(arena),
      arbiters_{LinkArbiter(cfg, name_ + ".arb" + port_name(0)),
                LinkArbiter(cfg, name_ + ".arb" + port_name(1)),
                LinkArbiter(cfg, name_ + ".arb" + port_name(2)),
                LinkArbiter(cfg, name_ + ".arb" + port_name(3))} {
  events::install(sim_);
  const unsigned v = cfg_.vcs_per_port;
  scheme_ = cfg_.arbiter == ArbiterKind::kUnregulated
                ? VcScheme::kCreditBased
                : VcScheme::kShareBased;
  const VcScheme scheme = scheme_;

  // Network VC buffers and their flow boxes.
  bufs_.reserve(kNumDirections * v + cfg_.local_gs_ifaces);
  flow_.reserve(kNumDirections * v);
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    for (VcIdx vc = 0; vc < v; ++vc) {
      const VcBufferId id{p, vc};
      bufs_.push_back(make_component<VcBuffer>(sim_, delays_, scheme, id));
      flow_.push_back(make_flow_control(sim_, scheme, delays_.sharebox_unlock,
                                        /*credits=*/2, arena_));
      VcBuffer& buf = *bufs_.back();
      VcFlowControl& fb = *flow_.back();
      buf.set_on_head([this, p, vc] { update_gs_request(p, vc); });
      buf.set_on_reverse([this, id] { vc_control_.signal(id); });
      fb.set_on_ready([this, p, vc] { update_gs_request(p, vc); });
    }
  }

  // BE flit storage: every BE input ring, then every output-stage lane,
  // in one block sized from the config.
  const std::size_t in_slots = BeRouter::input_slots(cfg_);
  const std::size_t lane_slots =
      static_cast<std::size_t>(cfg_.be_vcs) * BeOutputStage::kDepth;
  const std::size_t n_slots = in_slots + kNumDirections * lane_slots;
  Flit* slots = nullptr;
  if (arena_ != nullptr) {
    slots = arena_->create_array<Flit>(n_slots);
  } else {
    be_slots_heap_ = std::make_unique<Flit[]>(n_slots);
    slots = be_slots_heap_.get();
  }
  be_.bind_inputs(slots, cfg_.be_buffer_depth);
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    be_out_[p].wire(this, p, cfg_.be_vcs, slots + in_slots + p * lane_slots);
  }

  // Local output interfaces (delivery to the NA; no link arbiter).
  for (LocalIfaceIdx i = 0; i < cfg_.local_gs_ifaces; ++i) {
    const VcBufferId id{kLocalPort, i};
    bufs_.push_back(make_component<VcBuffer>(sim_, delays_, scheme, id));
    VcBuffer& buf = *bufs_.back();
    buf.set_on_head([this, i] {
      if (local_out_notify_) local_out_notify_(i);
    });
    buf.set_on_reverse([this, id] { vc_control_.signal(id); });
  }

  // VC control module outputs.
  vc_control_.set_network_out([this](PortIdx in_port, VcIdx wire) {
    Link* l = links_.at(in_port);
    MANGO_ASSERT(l != nullptr, "reverse signal through unattached port " +
                                   port_name(in_port) + " on " + name_);
    l->send_reverse(this, wire);
  });
  vc_control_.set_local_out(
      [this](LocalIfaceIdx iface) {
        MANGO_ASSERT(static_cast<bool>(local_reverse_),
                     "no NA reverse handler on " + name_);
        local_reverse_(iface);
      },
      reverse_fold_delay());
}

Router::~Router() {
  if (arena_ != nullptr) return;  // arena owns the components
  for (VcBuffer* b : bufs_) delete b;
  for (VcFlowControl* f : flow_) delete f;
}

std::size_t Router::buf_index(VcBufferId id) const {
  if (id.port == kLocalPort) {
    MANGO_ASSERT(id.vc < cfg_.local_gs_ifaces,
                 "local iface out of range: " + to_string(id));
    return static_cast<std::size_t>(kNumDirections) * cfg_.vcs_per_port + id.vc;
  }
  MANGO_ASSERT(id.port < kNumDirections && id.vc < cfg_.vcs_per_port,
               "VC buffer out of range: " + to_string(id));
  return static_cast<std::size_t>(id.port) * cfg_.vcs_per_port + id.vc;
}

VcFlowControl& Router::flow_control(PortIdx port, VcIdx vc) {
  MANGO_ASSERT(port < kNumDirections, "flow boxes exist on network ports only");
  return *flow_.at(buf_index({port, vc}));
}

void Router::attach_link(PortIdx port, Link* link) {
  MANGO_ASSERT(is_network_port(port), "links attach to network ports");
  MANGO_ASSERT(links_[port] == nullptr,
               "port " + port_name(port) + " already linked on " + name_);
  links_[port] = link;
}

void Router::configure_be_downstream(PortIdx port, unsigned credits_per_vc,
                                     std::uint8_t peer_split_code) {
  be_out_.at(port).set_downstream(credits_per_vc, peer_split_code);
}

void Router::receive_link_flit(PortIdx in_port, LinkFlit lf) {
  // The split module (and for GS the half-switch and unsharebox latch)
  // delays the flit by the decoded stage delay; it then lands in the BE
  // router's input or in the target VC buffer.
  const SwitchingModule::PlannedHop hop = switching_.plan(in_port, lf.steer);
  switching_.note_routed();
  sim::TypedEvent ev{};
  if (hop.to_be) {
    ev.op = events::kOpSwitchBe;
    ev.a = in_port;
    ev.p0 = &be_;
  } else {
    ev.op = events::kOpSwitchGs;
    ev.a = hop.target.port;
    ev.b = hop.target.vc;
    ev.p0 = this;
  }
  events::store_flit(ev, lf.flit);
  sim_.after_typed(hop.stage_delay, ev);
}

void Router::receive_reverse(PortIdx out_port, VcIdx vc) {
  flow_control(out_port, vc).on_reverse_signal();
}

bool Router::local_out_has_head(LocalIfaceIdx iface) const {
  return bufs_.at(kNumDirections * cfg_.vcs_per_port + iface)->has_head();
}

Flit Router::local_out_pop(LocalIfaceIdx iface) {
  return vc_buffer({kLocalPort, iface}).pop();
}

void Router::inject_local_be(Flit f) {
  be_.push_input(kLocalPort, std::move(f));
}

bool Router::gs_eligible(PortIdx port, VcIdx vc) const {
  const std::size_t i = static_cast<std::size_t>(port) * cfg_.vcs_per_port + vc;
  return bufs_[i]->has_head() && flow_[i]->can_admit();
}

void Router::update_gs_request(PortIdx port, VcIdx vc) {
  if (!gs_eligible(port, vc)) {
    arbiters_[port].set_request_gs(vc, false);  // dropping never grants
    return;
  }
  // The request line rises after the buffer-head -> arbiter wire delay;
  // re-check the condition at fire time (events may have intervened).
  sim::TypedEvent ev{};
  ev.op = events::kOpGsReqRecheck;
  ev.a = port;
  ev.b = vc;
  ev.p0 = this;
  sim_.after_typed(delays_.req_fwd, ev);
}

void Router::recheck_gs_request(PortIdx port, VcIdx vc) {
  if (arbiters_[port].set_request_gs(vc, gs_eligible(port, vc))) {
    try_grant(port);
  }
}

void Router::request_be(PortIdx port, bool requesting) {
  if (arbiters_[port].set_request_be(requesting)) try_grant(port);
}

void Router::try_grant(PortIdx port) {
  LinkArbiter& arb = arbiters_[port];
  const int sel = arb.grant();
  if (sel < 0) return;
  if (sel == static_cast<int>(arb.vcs())) {
    be_out_[port].on_grant();
  } else {
    on_gs_grant(port, static_cast<VcIdx>(sel));
  }
  // The link-output stage recovers after one arbitration cycle; the
  // reciprocal of this pacing is the port speed reported in Section 6.
  sim::TypedEvent ev{};
  ev.op = events::kOpArbRearm;
  ev.a = port;
  ev.p0 = this;
  sim_.after_typed(delays_.arb_cycle, ev);
}

void Router::complete_arb_cycle(PortIdx port) {
  arbiters_[port].complete_cycle();
  try_grant(port);
}

void Router::deliver_local_be_credit(BeVcIdx vc) { local_be_credit_(vc); }

void Router::return_be_credit(PortIdx in, BeVcIdx vc) {
  if (in == kLocalPort) {
    if (local_be_credit_) {
      sim::TypedEvent ev{};
      ev.op = events::kOpLocalBeCredit;
      ev.a = vc;
      ev.p0 = this;
      sim_.after_typed(delays_.be_credit_back, ev);
    }
    return;
  }
  Link* l = links_[in];
  MANGO_ASSERT(l != nullptr,
               "BE credit through unattached port " + port_name(in));
  l->send_be_credit(this, vc);
}

void Router::deliver_local_be(Flit&& f) {
  if (local_be_delivery_timed_) {
    // Passive NA consumer: fold the wire hop.
    const sim::Time at = sim_.now() + delays_.na_link_fwd;
    sim_.note_folded_hop_at(at);
    local_be_delivery_timed_(std::move(f), at);
    return;
  }
  MANGO_ASSERT(static_cast<bool>(local_be_delivery_),
               "no NA BE delivery sink on " + name_);
  sim_.after(delays_.na_link_fwd, [this, f = std::move(f)]() mutable {
    local_be_delivery_(std::move(f));
  });
}

const Router::GsSendPlan& Router::send_plan(PortIdx port, VcIdx vc) {
  if (send_plans_.empty()) {
    send_plans_.resize(static_cast<std::size_t>(kNumDirections) *
                       cfg_.vcs_per_port);
  }
  GsSendPlan& plan =
      send_plans_[static_cast<std::size_t>(port) * cfg_.vcs_per_port + vc];
  if (plan.valid && plan.generation == table_.generation()) return plan;
  const SteerBits steer = table_.forward({port, vc});  // throws if unset
  Link* l = links_[port];
  MANGO_ASSERT(l != nullptr, "GS flit granted onto unattached port " +
                                 port_name(port) + " on " + name_);
  const Link::Endpoint& peer = l->peer_endpoint(this);
  const SwitchingModule::PlannedHop hop =
      peer.router->switching().plan(peer.port, steer);
  MANGO_ASSERT(!hop.to_be, "GS connection steered at the BE router");
  plan.link = l;
  plan.peer = peer.router;
  plan.target = &peer.router->vc_buffer(hop.target);
  plan.flit_counter = l->flit_counter(this);
  plan.fwd = l->forward_latency();
  plan.total_delay = plan.fwd + hop.stage_delay;
  plan.generation = table_.generation();
  plan.valid = true;
  return plan;
}

void Router::on_gs_grant(PortIdx port, VcIdx vc) {
  VcFlowControl& fb = flow_control(port, vc);
  MANGO_ASSERT(fb.can_admit(), "grant to a VC whose flow box cannot admit");
  fb.on_admit();
  Flit f = vc_buffer({port, vc}).pop();
  Link* bl = links_[port];
  if (bl != nullptr && bl->is_boundary(this)) {
    // Cross-shard port: the cached plan would resolve the peer's
    // switching state from another shard mid-window. The link pushes a
    // boundary handoff record instead (two-event receive at the peer).
    const SteerBits steer = table_.forward({port, vc});
    ++link_flits_sent_;
    bl->send_flit(this, LinkFlit{steer, f});
    update_gs_request(port, vc);
    return;
  }
  // Link forward + downstream switch stage in one event.
  const GsSendPlan& plan = send_plan(port, vc);
  ++*plan.flit_counter;
  ++link_flits_sent_;
  sim_.note_folded_hop_at(sim_.now() + plan.fwd);
  sim::TypedEvent ev{};
  ev.op = events::kOpGsDeliverPtr;
  ev.p0 = plan.peer;
  ev.p1 = plan.target;
  events::store_flit(ev, f);
  sim_.after_typed(plan.total_delay, ev);
  update_gs_request(port, vc);
}

RouterActivity Router::activity() const {
  RouterActivity a;
  a.switch_flits = switching_.flits_routed();
  a.vc_control_signals = vc_control_.signals();
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    a.arb_grants += arbiters_[p].total_grants();
  }
  a.be_router_flits = be_.flits_routed();
  a.link_flits_sent = link_flits_sent_;
  return a;
}

}  // namespace mango::noc
