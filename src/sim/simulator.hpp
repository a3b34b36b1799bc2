// Discrete-event simulation kernel.
//
// Clockless (asynchronous) circuits are data-driven: every latch, arbiter
// and handshake control fires when its inputs change, after a circuit-
// specific delay. That maps directly onto a classic discrete-event kernel:
// components schedule callbacks at absolute picosecond timestamps, and the
// kernel dispatches them in (time, insertion-order) order so runs are
// fully deterministic.
//
// Event storage is a slab-allocated intrusive list behind a two-level
// calendar queue (see DESIGN.md):
//
//   * a near-horizon wheel of kWheelSize buckets, each covering one
//     2^kBucketShift-ps granule. Nearly every handshake delay in the model
//     (60 ps .. ~16 ns) lands within the wheel horizon, so insert and pop
//     are O(1) amortized — no heap percolation per event. Buckets are
//     doubly-linked sorted chains: in-order schedules append at the tail,
//     and the rare out-of-order insert searches backward from the tail,
//     so the same-timestamp event trains a thousand phase-aligned CBR
//     sources produce (all firing at k x period) are never traversed;
//   * a min-heap overflow for events beyond the horizon (timeouts, traffic
//     interarrivals, warm-up deadlines). Overflow events migrate into the
//     wheel as the cursor approaches them.
//
// Hot per-flit events travel as TypedEvent records — a one-byte opcode
// plus packed arguments filling the node's 64-byte capture area —
// dispatched through a single registered switch function, so the steady-
// state loop pays no indirect call, no capture construction and no
// destructor per event. Cold/control events keep the type-erased
// InlineFunction fallback (opcode 0). Event nodes are recycled through a
// free list carved from slabs — the steady-state loop performs no
// allocation at all.
//
// Dispatch order is (time, birth, insertion seq), where `birth` is the
// kernel clock at scheduling time. For events scheduled organically via
// at()/after() the birth of a later seq is never smaller at equal time
// (now() is nondecreasing), so the order is bit-identical to the classic
// (time, insertion seq) kernel (sim/legacy_kernel.hpp keeps that
// implementation for differential tests and benchmarks). The explicit
// birth component exists for the sharded engine (sim/parallel.hpp):
// boundary events handed across shards are admitted with the *sender's*
// scheduling time as their birth, so a merged multi-kernel run dispatches
// them exactly where the single-kernel run would have.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// POD record for a typed hot-path event: a small opcode plus packed
/// arguments, dispatched through one registered switch function instead
/// of a per-event type-erased callback. The payload holds a trivially
/// copyable argument blob (a Flit or LinkFlit in the NoC model) by
/// memcpy; p0/p1 carry receiver pointers and a/b/c/d small scalars. The
/// record is exactly the event node's capture area, so scheduling a
/// typed event is one 64-byte store with no indirect call, no capture
/// construction and no destructor on recycle.
struct TypedEvent {
  std::uint8_t op;  ///< nonzero opcode (0 is reserved for callbacks)
  std::uint8_t a;
  std::uint8_t b;
  std::uint8_t c;
  std::uint32_t d;
  void* p0;
  void* p1;
  unsigned char payload[40];
};
static_assert(sizeof(TypedEvent) == 64, "typed record fills the capture area");
static_assert(std::is_trivially_copyable_v<TypedEvent>,
              "typed records move by memcpy");

/// The event kernel. One instance drives one simulated network.
class Simulator {
 public:
  /// 5 words of inline capture: fits every remaining cold-path callback
  /// in the model (the largest captures a receiver pointer plus a
  /// 32-byte Flit); hot per-flit events travel as TypedEvent records.
  using Callback = InlineFunction<void(), 5>;

  /// The typed-event switch, registered once by the model layer. Takes
  /// the record by reference straight out of the event node.
  using TypedDispatcher = void (*)(TypedEvent&);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  void at(Time t, Callback cb);

  /// Emplace overload: constructs the callback directly inside the event
  /// node — one capture construction instead of the three transfers
  /// (functor -> Callback -> parameter -> node) the type-erased overload
  /// performs. Every hot-path schedule resolves here.
  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  void at(Time t, F&& f) {
    MANGO_ASSERT(t >= now_, "cannot schedule an event in the past");
    EventNode* n = alloc_node();
    n->time = t;
    n->birth = now_;
    n->seq = next_seq_++;
    n->body.cb.cb = std::forward<F>(f);
    insert(n);
  }

  /// Schedules `cb` after `delay` picoseconds.
  void after(Time delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }

  /// Admits an event with an explicit birth timestamp. Used by the shard
  /// engine to merge boundary events from other kernels: the event keeps
  /// the *sender's* scheduling time as its tie-break key, so it sorts
  /// against local events exactly as it would have in one shared kernel.
  /// Requires t >= now() and birth <= t.
  void admit(Time t, Time birth, Callback cb);

  /// Registers the typed-event switch. Idempotent: re-registering the
  /// same function is a no-op, a different one is a model error (the
  /// kernel supports exactly one dispatch table per process image).
  void set_typed_dispatcher(TypedDispatcher d) {
    MANGO_ASSERT(dispatcher_ == nullptr || dispatcher_ == d,
                 "conflicting typed-event dispatchers");
    dispatcher_ = d;
  }

  /// Schedules a typed record at absolute time `t` (must be >= now()).
  /// The record is copied into the node's capture area — one 64-byte
  /// store; dispatch order is identical to the callback overloads (the
  /// node draws the same (time, birth, seq) key either way).
  void at_typed(Time t, const TypedEvent& ev) {
    MANGO_ASSERT(t >= now_, "cannot schedule an event in the past");
    MANGO_ASSERT(ev.op != 0, "typed events need a nonzero opcode");
    EventNode* n = alloc_node();
    n->time = t;
    n->birth = now_;
    n->seq = next_seq_++;
    ::new (&n->body.ev) TypedEvent(ev);
    insert(n);
  }

  /// Schedules a typed record after `delay` picoseconds.
  void after_typed(Time delay, const TypedEvent& ev) {
    at_typed(now_ + delay, ev);
  }

  /// Typed twin of admit(): explicit-birth merge of a boundary record.
  void admit_typed(Time t, Time birth, const TypedEvent& ev) {
    MANGO_ASSERT(t >= now_, "cannot admit an event in the past");
    MANGO_ASSERT(birth <= t, "admitted birth must not exceed the event time");
    MANGO_ASSERT(ev.op != 0, "typed events need a nonzero opcode");
    EventNode* n = alloc_node();
    n->time = t;
    n->birth = birth;
    n->seq = next_seq_++;
    ::new (&n->body.ev) TypedEvent(ev);
    insert(n);
  }

  /// Earliest pending (time, birth) key; (kTimeNever, 0) when idle.
  struct EventKey {
    Time time = kTimeNever;
    Time birth = 0;
  };
  EventKey next_event_key();

  /// Conservative-window run: dispatches every event strictly earlier
  /// than `end`, then parks now() at `end`. Events at exactly `end` stay
  /// pending so that boundary events admitted *at* a window edge can
  /// still be merged ahead of (or between) them by (time, birth, seq).
  /// Returns the number of events dispatched.
  std::uint64_t run_window(Time end);

  /// Dispatches every event with key (time, birth) lexicographically
  /// before (t, birth_bound), then parks now() at `t`. Used by the shard
  /// engine to align every shard on an exact control-event key before
  /// executing a control action. Returns events dispatched.
  std::uint64_t run_until_tie(Time t, Time birth_bound);

  /// Dispatches the single next event. Returns false if none is pending.
  bool step();

  /// Runs until the queue drains or the next event is later than `t_end`
  /// (events exactly at `t_end` are dispatched); leaves now() at `t_end`.
  /// Returns the number of events dispatched.
  std::uint64_t run_until(Time t_end);

  /// Runs until the event queue is empty. Returns events dispatched.
  std::uint64_t run();

  /// True if no event is pending.
  bool idle() const { return pending_ == 0; }

  /// Number of pending events.
  std::size_t pending() const { return pending_; }

  /// Time of the earliest pending event; kTimeNever when idle. Fast-
  /// forwards the wheel cursor over empty buckets as a side effect, so a
  /// peek-then-step sequence (run_until's loop) scans each bucket once.
  Time next_event_time();

  /// Total events since construction: dispatched events plus the
  /// handshake hops folded into transfer events (note_folded_hop_at)
  /// whose analytic time the clock has passed. The figure counts every
  /// hop of the model's handshake chains, not scheduler invocations —
  /// including runs cut off mid-chain by run_until().
  std::uint64_t events_dispatched() const {
    std::uint64_t n = dispatched_;
    for (const Time t : folds_) {
      if (t <= now_) ++n;
    }
    return n;
  }

  /// Declares a handshake hop that a folded transfer event will
  /// execute analytically at time `t` (the model layer folds fixed-delay
  /// event chains into one scheduled event). Amortized O(1): entries go
  /// into an unsorted ledger that is compacted against the clock when it
  /// grows — never a per-event heap operation.
  void note_folded_hop_at(Time t) {
    if (folds_.size() >= fold_compact_at_) compact_folds();
    folds_.push_back(t);
  }

 private:
  /// Fallback capture area: a type-erased callback behind the reserved
  /// opcode 0. Shares a common initial sequence (the leading opcode
  /// byte) with TypedEvent, so the kernel reads body.ev.op to tell which
  /// union member is live without a separate discriminant.
  struct CallbackSlot {
    std::uint8_t op = 0;  ///< always 0 while a callback is live
    Callback cb;
  };
  static_assert(sizeof(CallbackSlot) <= sizeof(TypedEvent),
                "the callback fallback must fit the typed capture area");

  struct EventNode {
    Time time = 0;
    Time birth = 0;         // now() at scheduling time (tie-break level 2)
    std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
    EventNode* next = nullptr;
    EventNode* prev = nullptr;  // bucket chains are doubly linked so the
                                // out-of-order insert searches backward
                                // from the tail (see insert_wheel)
    /// 64-byte capture area. A recycled node always parks with the
    /// callback slot live and empty (free_node restores that state), so
    /// scheduling only ever transitions: callback schedules assign into
    /// the empty cb, typed schedules end the slot's lifetime with a
    /// trivial placement-new of the record.
    union Body {
      CallbackSlot cb;  ///< live iff ev.op == 0
      TypedEvent ev;
      Body() : cb{} {}
      ~Body() {}  // EventNode destroys the live member
    } body;

    EventNode() = default;
    EventNode(const EventNode&) = delete;
    EventNode& operator=(const EventNode&) = delete;
    ~EventNode() {
      if (body.ev.op == 0) body.cb.~CallbackSlot();
    }
  };
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  /// Min-heap comparator for the overflow: true when `a` dispatches after
  /// `b`.
  struct HeapLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      return earlier(b->time, b->birth, b->seq, a->time, a->birth, a->seq);
    }
  };

  // Bucket width tuned for thousand-node fabrics: a saturated 32x32 run
  // keeps several thousand events in flight at >7 events/ps, so 512-ps
  // buckets develop O(nodes)-long chains and every out-of-order insert
  // pays a chain walk. One-picosecond buckets make a bucket a single
  // timestamp: a new event always carries the largest (birth, seq) among
  // its time-equals, so every wheel insert is the O(1) tail append
  // (measured: zero out-of-order inserts across the scale-1k presets).
  // The 16.4-ns horizon still covers every handshake delay; longer
  // schedules (traffic interarrivals, timeouts) ride the overflow heap
  // and migrate as the cursor approaches. The sparse-workload flip side
  // — a lone GS stream dispatches one event every few hundred granules,
  // and walking empty 1-ps buckets one head==nullptr check at a time
  // would cost more than the chains did — is paid off by a two-level
  // occupancy bitmap (occ_/occ_l1_): the cursor jumps straight to the
  // next non-empty bucket with a handful of word scans.
  static constexpr unsigned kBucketShift = 0;  // 1 ps per bucket
  static constexpr unsigned kWheelBits = 14;   // 16384 buckets, ~16.4 ns horizon
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kOccWords = kWheelSize / 64;
  static constexpr std::size_t kOccL1Words = kOccWords / 64;
  static constexpr std::size_t kSlabNodes = 256;

  static constexpr std::uint64_t granule_of(Time t) { return t >> kBucketShift; }

  /// True when (ta, ba, sa) dispatches strictly before (tb, bb, sb).
  static constexpr bool earlier(Time ta, Time ba, std::uint64_t sa, Time tb,
                                Time bb, std::uint64_t sb) {
    if (ta != tb) return ta < tb;
    if (ba != bb) return ba < bb;
    return sa < sb;
  }

  EventNode* alloc_node();
  void free_node(EventNode* n);
  void insert(EventNode* n);
  void insert_wheel(EventNode* n);
  /// Occupancy-bitmap maintenance: exactly insert_wheel() marks and
  /// pop_earliest() clears, so a bit is set iff its bucket has a head.
  void mark_occupied(std::size_t idx) {
    occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    occ_l1_[idx >> 12] |= std::uint64_t{1} << ((idx >> 6) & 63);
  }
  void mark_empty(std::size_t idx) {
    if ((occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63))) == 0) {
      occ_l1_[idx >> 12] &= ~(std::uint64_t{1} << ((idx >> 6) & 63));
    }
  }
  /// Index of the first occupied bucket at or circularly after `idx`.
  /// Requires wheel_count_ > 0. O(1): one partial word, at most a
  /// 63-word linear run to the next level-1 span boundary, then
  /// level-1 jumps.
  std::size_t next_occupied(std::size_t idx) const;
  /// Advances cur_granule_ to its bucket's next occupied granule using
  /// the bitmap (no-op when the cursor bucket itself is occupied).
  void skip_to_occupied() {
    const std::size_t idx = cur_granule_ & kWheelMask;
    cur_granule_ += (next_occupied(idx) - idx) & kWheelMask;
  }
  /// Moves every overflow event now inside the wheel horizon into the wheel.
  void migrate_overflow();
  /// Unlinks and returns the earliest pending event (caller checks pending_).
  EventNode* pop_earliest();

  // Slab storage: nodes are carved in blocks and recycled via free_list_;
  // nothing is returned to the system until destruction.
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;

  Bucket wheel_[kWheelSize] = {};
  /// Two-level bucket-occupancy bitmap: occ_ has one bit per bucket,
  /// occ_l1_ one bit per 64-bucket span of occ_. Lets the cursor skip
  /// runs of empty 1-ps buckets in O(1) word scans instead of O(gap)
  /// head==nullptr checks (a sparse workload's inter-event gap can be
  /// hundreds of granules).
  std::uint64_t occ_[kOccWords] = {};
  std::uint64_t occ_l1_[kOccL1Words] = {};
  std::size_t wheel_count_ = 0;
  /// Granule of the wheel cursor. Invariants: every wheel event's granule
  /// lies in [granule(now), granule(now) + kWheelSize) — admission and
  /// migration are bounded by now(), so each bucket holds events of one
  /// granule only — and the cursor never passes a non-empty bucket, so
  /// cur_granule_ <= the minimum wheel granule whenever the wheel is
  /// non-empty (insert() rewinds it to granule(now) otherwise).
  std::uint64_t cur_granule_ = 0;

  static constexpr std::size_t kFoldCompactLimit = 4096;

  /// Retires ledger entries the clock has passed into dispatched_. The
  /// next compaction threshold doubles off the surviving size, so a
  /// workload holding many not-yet-passed folds in flight scans the
  /// ledger amortized O(1) per note instead of on every call.
  void compact_folds() {
    std::size_t w = 0;
    for (const Time t : folds_) {
      if (t > now_) {
        folds_[w++] = t;
      } else {
        ++dispatched_;
      }
    }
    folds_.resize(w);
    fold_compact_at_ = std::max(kFoldCompactLimit, 2 * w);
  }

  /// Beyond-horizon events: min-heap on the full dispatch key
  /// (time, birth, seq) — see HeapLater.
  std::vector<EventNode*> overflow_;
  /// Unsorted ledger of declared folded-hop times not yet retired.
  std::vector<Time> folds_;
  std::size_t fold_compact_at_ = kFoldCompactLimit;

  std::size_t pending_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  TypedDispatcher dispatcher_ = nullptr;
};

}  // namespace mango::sim
