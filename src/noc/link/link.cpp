#include "noc/link/link.hpp"

#include "noc/common/events.hpp"
#include "noc/network/boundary.hpp"
#include "noc/router/router.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

Link::Link(Endpoint a, Endpoint b, unsigned pipeline_stages,
           LinkSignaling signaling, sim::Time skew_ps)
    : a_(a),
      b_(b),
      stages_(pipeline_stages),
      signaling_(signaling),
      skew_(skew_ps) {
  MANGO_ASSERT(a_.router != nullptr && b_.router != nullptr,
               "link endpoints must be routers");
  // Endpoints in different SimContexts are a shard boundary: allowed,
  // but every send must go through set_boundary() channels (Network
  // attaches them to every link whose endpoints sit on different shards).
  sims_[0] = &a_.router->ctx().sim();
  sims_[1] = &b_.router->ctx().sim();
  MANGO_ASSERT(a_.router != b_.router, "self-links are not supported");
  MANGO_ASSERT(stages_ >= 1, "a link has at least one wire segment");
  const StageDelays& d = a_.router->delays();
  if (signaling_ == LinkSignaling::kBundledData) {
    // Bundled data assumes delay-matched wires; a link whose skew
    // exceeds the margin cannot close timing (Section 6: the links "are
    // much longer, and thus more sensitive to timing variations").
    MANGO_ASSERT(skew_ <= d.bundling_margin,
                 "bundled-data link skew exceeds the timing margin — use "
                 "1-of-4 delay-insensitive signaling");
  }
  sim::Time per_stage = d.link_fwd;
  if (signaling_ == LinkSignaling::kOneOfFour) {
    // Wait for the slowest wire, then detect completion.
    per_stage += skew_ + d.di_completion;
  }
  forward_ = d.merge_fwd + static_cast<sim::Time>(stages_) * per_stage;
  reverse_ = static_cast<sim::Time>(stages_) * d.unlock_back;
  be_credit_ = static_cast<sim::Time>(stages_) * d.be_credit_back;
  reverse_rearm_[0] = b_.router->reverse_fold_delay();
  reverse_rearm_[1] = a_.router->reverse_fold_delay();
  events::install(*sims_[0]);
  events::install(*sims_[1]);
  a_.router->attach_link(a_.port, this);
  b_.router->attach_link(b_.port, this);
}

const Link::Endpoint& Link::peer_of(const Router* from) const {
  if (from == a_.router) return b_;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return a_;
}

unsigned Link::dir_of(const Router* from) const {
  if (from == a_.router) return 0;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return 1;
}

void Link::push_boundary(unsigned dir, BoundaryKind kind, VcIdx wire,
                         LinkFlit lf, sim::Time latency) {
  sim::Simulator& self = *sims_[dir];
  BoundaryRecord rec;
  rec.arrival = self.now() + latency;
  rec.birth = self.now();
  rec.kind = kind;
  rec.wire = wire;
  rec.lf = lf;
  boundary_[dir]->push(rec);
}

unsigned Link::wires_per_direction() const {
  const unsigned vcs = a_.router->config().vcs_per_port;
  // forward data wires + ack + V unlock wires + 1 BE credit wire.
  return link_forward_wires(signaling_) + 1 + vcs + 1;
}

void Link::send_flit(const Router* from, LinkFlit lf) {
  const unsigned dir = dir_of(from);
  MANGO_ASSERT(boundary_[dir] != nullptr,
               "GS link flits are sent through the boundary channels only");
  ++flits_carried_[dir];
  // Cross-shard: hand off for barrier admission; the destination runs
  // the plain two-event receive (no peer state is read here).
  push_boundary(dir, BoundaryKind::kFlit, 0, lf, forward_);
}

void Link::send_be_flit(const Router* from, LinkFlit lf) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  ++flits_carried_[dir];
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kFlit, 0, lf, forward_);
    return;
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpLinkFlit;
  ev.a = peer.port;
  ev.p0 = peer.router;
  events::store_link_flit(ev, lf);
  sims_[dir]->after_typed(forward_, ev);
}

void Link::send_reverse(const Router* from, VcIdx wire) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kReverse, wire, LinkFlit{}, reverse_);
    return;
  }
  sim::Simulator& sim_ = *sims_[dir];
  // Fold the flow box's re-arm delay (0 for credit boxes) into the wire
  // event: one scheduled event from unlock toggle to box-ready.
  const sim::Time rearm = reverse_rearm_[dir];
  if (rearm > 0) sim_.note_folded_hop_at(sim_.now() + reverse_);
  sim::TypedEvent ev{};
  ev.op = events::kOpReverseDone;
  ev.a = peer.port;
  ev.b = wire;
  ev.p0 = peer.router;
  sim_.after_typed(reverse_ + rearm, ev);
}

void Link::send_be_credit(const Router* from, BeVcIdx vc) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kBeCredit, vc, LinkFlit{}, be_credit_);
    return;
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpBeCredit;
  ev.a = peer.port;
  ev.b = vc;
  ev.p0 = peer.router;
  sims_[dir]->after_typed(be_credit_, ev);
}

}  // namespace mango::noc
