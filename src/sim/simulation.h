#ifndef DMR_SIM_SIMULATION_H_
#define DMR_SIM_SIMULATION_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "prof/prof.h"
#include "sim/arena.h"

namespace dmr::sim {

class Simulation;

/// \brief Which priority-queue implementation backs a Simulation.
///
/// kCalendar is the default and the fast path: a two-tier calendar queue
/// (near-future time buckets plus an overflow tier) that only sorts a
/// bucket when it becomes current. kBinaryHeap is the original
/// std::push_heap queue, kept as the oracle: both produce bit-identical
/// firing order (see internal::EventQueue), and the equivalence tests and
/// tier-1 digest stages hold them to that.
enum class QueueKind : uint8_t {
  kCalendar = 0,
  kBinaryHeap = 1,
};

namespace internal {

/// \brief A move-only callable with small-buffer optimization, used in place
/// of std::function on the event hot path.
///
/// Callables that are trivially copyable and fit in kInlineBytes are stored
/// inline (no allocation, moves are byte copies); anything else spills to a
/// single out-of-line allocation. Event callbacks in this codebase
/// overwhelmingly capture a `this` pointer plus a couple of scalars, so the
/// inline path is the common case. The buffer is deliberately small: events
/// live inside the priority-queue storage, and every extra byte here is
/// moved on each sift.
///
/// The spill allocation is drawn from the owning Simulation's Arena; the
/// box remembers that arena so it frees itself wherever it is destroyed.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(Arena* arena, F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(void*) &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      ::new (static_cast<void*>(storage_.inline_bytes))
          Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*std::launder(
            reinterpret_cast<Fn*>(self->storage_.inline_bytes)))();
      };
      destroy_ = nullptr;
    } else if constexpr (alignof(Fn) <= 16) {
      struct Box {
        Arena* arena;
        Fn fn;
      };
      prof::AccountAlloc(prof::AllocSite::kCallbackSpill, 1, sizeof(Box));
      storage_.heap = ::new (arena->Allocate(sizeof(Box)))
          Box{arena, Fn(std::forward<F>(f))};
      invoke_ = [](EventCallback* self) {
        static_cast<Box*>(self->storage_.heap)->fn();
      };
      destroy_ = [](EventCallback* self) {
        Box* box = static_cast<Box*>(self->storage_.heap);
        Arena* owner = box->arena;
        box->~Box();
        owner->Deallocate(box, sizeof(Box));
      };
    } else {
      // Over-aligned callables bypass the 16-byte-aligned arena entirely.
      prof::AccountAlloc(prof::AllocSite::kCallbackSpill, 1, sizeof(Fn));
      storage_.heap = new Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*static_cast<Fn*>(self->storage_.heap))();
      };
      destroy_ = [](EventCallback* self) {
        delete static_cast<Fn*>(self->storage_.heap);
      };
    }
  }

  EventCallback(EventCallback&& other) noexcept
      : storage_(other.storage_),
        invoke_(other.invoke_),
        destroy_(other.destroy_) {
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      storage_ = other.storage_;
      invoke_ = other.invoke_;
      destroy_ = other.destroy_;
      other.invoke_ = nullptr;
      other.destroy_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { invoke_(this); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void Reset() {
    if (destroy_) destroy_(this);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  union Storage {
    alignas(void*) unsigned char inline_bytes[kInlineBytes];
    void* heap;
  } storage_;
  void (*invoke_)(EventCallback*) = nullptr;
  void (*destroy_)(EventCallback*) = nullptr;
};

class EventSlotPool;

/// \brief Cancellation state shared between a queued event and its handles.
///
/// Slots are allocated from an EventSlotPool free list and intrusively
/// ref-counted: the event queue holds one reference while the event is
/// pending, and each live EventHandle holds one. Refcounts are NOT atomic —
/// a Simulation and all handles derived from it must stay on one thread
/// (the determinism contract; see DESIGN.md).
struct EventSlot {
  uint32_t refs = 0;
  bool cancelled = false;
  bool fired = false;
  /// Owning simulation while the event is queued; null once the event fired,
  /// was purged, or the simulation was destroyed. Used to maintain the
  /// cancelled-in-queue counter that drives batched purging.
  Simulation* owner = nullptr;
  EventSlotPool* pool = nullptr;
  EventSlot* next_free = nullptr;
};

/// \brief A chunked free-list allocator for EventSlots.
///
/// The pool itself is ref-counted: one reference is held by the owning
/// Simulation and one by every live slot, so slot memory stays valid even
/// when an EventHandle outlives the Simulation it came from. The refcount
/// is deliberately unsynchronized, so every Acquire/Release must come from
/// the owning Simulation's thread.
class EventSlotPool {
 public:
  /// Creates a pool holding one owner reference (dropped via DropOwnerRef).
  static EventSlotPool* Create() { return new EventSlotPool(); }

  /// Returns a fresh slot with refs == 0; the pool gains one reference that
  /// is returned when the slot goes back on the free list.
  EventSlot* Acquire() {
    if (free_ == nullptr) Grow();
    EventSlot* slot = free_;
    free_ = slot->next_free;
    ++refs_;
    slot->refs = 0;
    slot->cancelled = false;
    slot->fired = false;
    slot->owner = nullptr;
    return slot;
  }

  void ReleaseSlot(EventSlot* slot) {
    slot->next_free = free_;
    free_ = slot;
    Unref();
  }

  void DropOwnerRef() { Unref(); }

 private:
  static constexpr std::size_t kChunkSlots = 256;

  EventSlotPool() = default;
  ~EventSlotPool() = default;

  void Unref() {
    if (--refs_ == 0) delete this;
  }

  void Grow();

  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  EventSlot* free_ = nullptr;
  uint64_t refs_ = 1;  // the owner reference
};

inline void SlotAddRef(EventSlot* slot) { ++slot->refs; }

inline void SlotRelease(EventSlot* slot) {
  if (--slot->refs == 0) slot->pool->ReleaseSlot(slot);
}

}  // namespace internal

/// \brief Opaque handle to a scheduled event; allows cancellation.
///
/// Handles are cheap to copy (an intrusive refcount bump) and may safely
/// outlive the Simulation that issued them: the underlying slot storage is
/// kept alive by the handle's reference.
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other) : slot_(other.slot_) {
    if (slot_) internal::SlotAddRef(slot_);
  }
  EventHandle& operator=(const EventHandle& other) {
    if (this != &other) {
      if (other.slot_) internal::SlotAddRef(other.slot_);
      if (slot_) internal::SlotRelease(slot_);
      slot_ = other.slot_;
    }
    return *this;
  }
  EventHandle(EventHandle&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      if (slot_) internal::SlotRelease(slot_);
      slot_ = other.slot_;
      other.slot_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() {
    if (slot_) internal::SlotRelease(slot_);
  }

  /// True if the handle refers to an event that has neither fired nor been
  /// cancelled yet.
  bool pending() const {
    return slot_ && !slot_->cancelled && !slot_->fired;
  }

  /// Cancels the event if still pending; safe to call repeatedly.
  void Cancel();

 private:
  friend class Simulation;
  explicit EventHandle(internal::EventSlot* slot) : slot_(slot) {
    internal::SlotAddRef(slot_);
  }
  internal::EventSlot* slot_ = nullptr;
};

/// \brief Semantic phase of an event within one virtual instant.
///
/// Events at the same timestamp fire in ascending class order, which
/// resolves the cross-component races a discrete-event cluster simulator is
/// otherwise full of (a map completing at exactly the instant a heartbeat
/// fires, a provider growing input at an evaluation tick that collides with
/// a scheduling decision, a monitor sampling mid-decision). The contract at
/// one instant t is:
///
///   1. kTaskLifecycle — work that finished by t is credited first (slots
///      free, split/job state advances);
///   2. kInputGrowth   — input that arrives at t (provider decisions, user
///      job submissions) becomes visible;
///   3. kScheduling    — assignment decisions (heartbeats) then run against
///      a settled cluster state;
///   4. kDefault       — unclassified events;
///   5. kBookkeeping   — observers (monitors, samplers) see the
///      post-decision state;
///   6. kTelemetry     — meta-observers (the obs::Timeline tick) sample
///      strictly after every other handler at t, including bookkeeping.
///
/// kTelemetry exists because a timeline probe may read kernel statistics
/// (events fired, queue size) that ordinary bookkeeping handlers perturb:
/// if the sampling tick could tie with a monitor at the same instant, the
/// sampled value would depend on the tie order and the timeline would no
/// longer be byte-identical across --shuffle-ties seeds (DESIGN.md §15).
///
/// Within one (timestamp, class) group the relative order is genuinely
/// unconstrained: handlers must commute, and the tie-race detector plus
/// EnableTieShuffle exist to check exactly that property.
enum class EventClass : uint8_t {
  kTaskLifecycle = 16,
  kInputGrowth = 32,
  kScheduling = 48,
  kDefault = 64,
  kBookkeeping = 80,
  kTelemetry = 96,
};

/// \brief Virtual-time tie statistics maintained by the kernel's tie-race
/// detector.
///
/// A "tie group" is a maximal run of >= 2 events fired at exactly the same
/// virtual timestamp with the same EventClass. Nothing in the event API
/// constrains the relative order within such a group — the kernel picks
/// insertion order (or a seeded permutation of it under tie shuffling) — so
/// any output that depends on that order is a latent determinism bug. The
/// detector makes tie exposure measurable; the shuffle mode
/// (EnableTieShuffle) makes "order among ties never matters" a checked
/// property: digests must be byte-identical across shuffle seeds.
struct TieStats {
  /// Number of same-(timestamp, class) groups (size >= 2) fired so far.
  uint64_t groups = 0;
  /// Total events belonging to those groups.
  uint64_t tied_events = 0;
  /// Size of the largest group seen.
  uint64_t max_group = 0;
};

/// \brief Construction-time knobs for a Simulation.
struct SimulationOptions {
  QueueKind queue = QueueKind::kCalendar;
  /// Virtual seconds covered by one calendar bucket. The default is sized
  /// from the cluster heartbeat interval (3 s / 8): heartbeats — the
  /// densest recurring event family — land ~8 buckets apart, so a bucket
  /// holds one instant's worth of co-scheduled work rather than several
  /// heartbeat generations.
  double bucket_width = 0.375;
  /// Buckets in the near-future tier; with the default width this covers a
  /// 96 s window, past which events wait in the unsorted overflow tier.
  int num_buckets = 256;
};

namespace internal {

/// Bit layout of an event's packed tie-break key, compared as one u64:
///
///   [class: 8][seq: 56]
///
/// Class sits on top so same-timestamp events fire in EventClass order;
/// the insertion sequence fills the low bits. The tie-shuffle hash is taken
/// over this exact value, so changing the layout would change every
/// shuffled firing order (tie_race_test pins them).
inline constexpr int kClassShift = 56;

struct Event {
  SimTime time;
  /// Packed tie-break key; see kClassShift above.
  uint64_t key;
  EventCallback fn;
  /// Queue's reference, released explicitly; null for detached events
  /// (no handle was issued, so there is nothing to cancel or refcount).
  EventSlot* slot;
};

/// Ordering predicate ("a fires after b") shared by both queue kinds.
/// When tie shuffling is on, same-(time, class) events are ordered by a
/// seeded bijective hash of the packed key instead of insertion order —
/// the hash is injective, so the order stays total and exactly
/// reproducible per seed.
struct EventAfter {
  bool shuffle = false;
  uint64_t seed = 0;
  bool operator()(const Event& a, const Event& b) const;
};

/// \brief The event priority queue: a two-tier calendar queue with a
/// binary-heap oracle mode.
///
/// Calendar mode partitions the near future into fixed-width time buckets
/// plus an unsorted overflow tier beyond the bucket horizon. Pushes append
/// to a bucket in O(1); only the *current* bucket is ever ordered (sorted
/// latest-first, lazily, when the dequeue cursor reaches it, making every
/// pop a plain pop_back). Because bucket index is a
/// monotone function of event time, no event in a later bucket can precede
/// any event in an earlier one, so draining buckets in order with a
/// per-bucket heap reproduces exactly the total order the binary heap
/// would produce — EventAfter is the single source of truth for order in
/// both modes, including under tie shuffling.
///
/// Cancelled events are compacted out of a bucket when it is sorted
/// (cheap, en route) and from the whole structure by PurgeCancelled()
/// (the batched path driven by Simulation::OnCancelled).
class EventQueue {
 public:
  /// `cancelled_counter` is the owning Simulation's lazily-cancelled count;
  /// the queue decrements it whenever it releases a cancelled event.
  void Init(QueueKind kind, double bucket_width, int num_buckets,
            EventAfter after, std::size_t* cancelled_counter);

  /// Re-arms the comparator (tie shuffle enablement); queue must be empty.
  void SetComparator(EventAfter after) { after_ = after; }

  QueueKind kind() const { return kind_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void Push(Event&& ev);

  /// Returns the minimum live event per the comparator, dropping (and
  /// releasing) any cancelled events encountered on the way; null when the
  /// queue has no live events left. The pointer is invalidated by any
  /// other queue operation.
  Event* PeekLive();

  /// Removes and returns the event PeekLive() just returned. PeekLive()
  /// must have returned non-null with no intervening operations.
  Event PopLive();

  /// Sweeps every cancelled event out of the structure; returns the number
  /// removed.
  std::size_t PurgeCancelled();

  /// Teardown: invokes `fn` on every remaining event, then clears.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (Event& ev : heap_) fn(ev);
    heap_.clear();
    for (auto& bucket : buckets_) {
      for (Event& ev : bucket) fn(ev);
      bucket.clear();
    }
    for (Event& ev : overflow_) fn(ev);
    overflow_.clear();
    in_buckets_ = 0;
    size_ = 0;
  }

 private:
  /// Bucket for time `t`, clamped into [cur_, num_buckets): monotone in t,
  /// which is the property the order-equivalence argument rests on. The
  /// low clamp folds floating-point boundary wobble (and any event landing
  /// at the current instant) into the current bucket, where the in-bucket
  /// heap orders it correctly by time.
  std::size_t BucketIndex(SimTime t) const;

  /// Positions cur_ on a non-empty, sorted bucket (compacting cancelled
  /// events and refilling from overflow as needed). False when no events
  /// remain.
  bool PrepareCurrent();

  /// Rebases the bucket window at the earliest overflow event and
  /// redistributes everything inside the new horizon.
  void Refill();

  /// Removes cancelled events from `v`, releasing their slots; returns the
  /// number removed.
  std::size_t Compact(std::vector<Event>& v);

  void ReleaseCancelled(Event& ev);

  QueueKind kind_ = QueueKind::kCalendar;
  EventAfter after_;
  std::size_t* cancelled_counter_ = nullptr;

  // kBinaryHeap storage.
  std::vector<Event> heap_;

  // kCalendar storage.
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> overflow_;
  double width_ = 1.0;
  double inv_width_ = 1.0;  // 1 / width_: Push multiplies, never divides
  double epoch_ = 0.0;      // start time of buckets_[0]
  double horizon_ = 0.0;    // epoch_ + width_ * buckets_.size()
  std::size_t cur_ = 0;
  bool cur_sorted_ = false;
  std::size_t in_buckets_ = 0;  // events currently in buckets

  std::size_t size_ = 0;
};

}  // namespace internal

/// \brief A deterministic discrete-event simulation kernel.
///
/// Events are (time, class, sequence) ordered; ties break by insertion
/// order so a run is exactly reproducible. Callbacks may schedule further
/// events.
///
/// A Simulation is single-threaded by contract: all scheduling, running and
/// handle operations must happen on one thread. Independent Simulations on
/// different threads (one per experiment cell) are fully isolated — this is
/// the determinism contract the parallel experiment harness relies on.
class Simulation {
 public:
  using Callback = internal::EventCallback;

  Simulation();
  explicit Simulation(const SimulationOptions& options);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0), in the
  /// kDefault phase of that instant.
  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  EventHandle Schedule(SimTime delay, F&& fn) {
    return Schedule(delay, EventClass::kDefault, std::forward<F>(fn));
  }

  /// Schedules `fn` with an explicit same-instant phase (see EventClass).
  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  EventHandle Schedule(SimTime delay, EventClass cls, F&& fn) {
    CheckDelay(delay);
    return ScheduleAt(now_ + delay, cls, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute virtual time `when` (>= Now()).
  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  EventHandle ScheduleAt(SimTime when, F&& fn) {
    return ScheduleAt(when, EventClass::kDefault, std::forward<F>(fn));
  }

  /// Schedules `fn` at `when` with an explicit same-instant phase.
  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  EventHandle ScheduleAt(SimTime when, EventClass cls, F&& fn) {
    return Enqueue(when, cls, Callback(&arena_, std::forward<F>(fn)));
  }

  /// Fire-and-forget variants: identical ordering semantics, but no
  /// EventHandle is issued, so the event cannot be cancelled and the
  /// kernel skips the cancellation-slot allocation and refcounting a
  /// handle requires. This is the fast path for the overwhelmingly common
  /// schedules whose handle would be discarded (heartbeat chains,
  /// monitors, completion callbacks).
  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  void ScheduleDetached(SimTime delay, EventClass cls, F&& fn) {
    CheckDelay(delay);
    ScheduleDetachedAt(now_ + delay, cls, std::forward<F>(fn));
  }

  template <typename F>
    requires std::invocable<std::decay_t<F>&>
  void ScheduleDetachedAt(SimTime when, EventClass cls, F&& fn) {
    EnqueueDetached(when, cls, Callback(&arena_, std::forward<F>(fn)));
  }

  /// Runs until the event queue is empty or `max_events` fired.
  /// Returns the number of events fired.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs until virtual time reaches `until` (events at exactly `until` are
  /// fired) or the queue empties. Time advances to `until` even if the queue
  /// empties earlier.
  uint64_t RunUntil(SimTime until);

  /// Number of events currently queued, including lazily-cancelled
  /// placeholders not yet purged. Use live_size() to reason about whether
  /// anything can still fire.
  std::size_t queue_size() const { return queue_.size(); }

  /// Number of queued events that can still fire (queue_size() minus the
  /// cancelled placeholders). This is the quantity to DMR_CHECK when
  /// asserting a simulation has drained: a queue can be "non-empty" while
  /// holding nothing but tombstones below the purge threshold.
  std::size_t live_size() const {
    return queue_size() - cancelled_in_queue();
  }

  uint64_t events_fired() const { return events_fired_; }

  /// Lazily-cancelled events still occupying the queue.
  std::size_t cancelled_in_queue() const { return cancelled_in_queue_; }

  /// Replaces insertion-order tie-breaking with a seeded pseudo-random
  /// permutation of it: among events at one timestamp, firing order becomes
  /// a deterministic function of (seed, insertion index). Different seeds
  /// exercise different legal orders; a system whose outputs change with
  /// the seed has a tie race. Must be called before anything is scheduled.
  void EnableTieShuffle(uint64_t seed);

  bool tie_shuffle_enabled() const { return tie_shuffle_; }
  uint64_t tie_shuffle_seed() const { return tie_shuffle_seed_; }

  /// Tie-race detector counters (maintained unconditionally; the cost is
  /// one timestamp compare per fired event).
  TieStats tie_stats() const { return ties_; }

  /// Scratch allocator for simulation-lifetime objects owned by
  /// single-threaded consumers (task attempts, completion counters).
  /// Everything allocated from it must be released before the Simulation
  /// is destroyed.
  Arena* arena() { return &arena_; }

  const SimulationOptions& options() const { return options_; }

  /// Process-wide default applied to every subsequently constructed
  /// Simulation (the `--shuffle-ties=SEED` bench flag sets this once at
  /// startup, before worker threads exist; nullopt restores insertion
  /// order). Not synchronized — set it only while single-threaded.
  static void SetGlobalTieShuffle(std::optional<uint64_t> seed);
  static std::optional<uint64_t> GlobalTieShuffle();

  /// Process-wide queue-kind override applied to every subsequently
  /// constructed Simulation, taking precedence over per-instance options
  /// (the `--queue=heap|calendar` bench flag sets this once at startup).
  /// Not synchronized — set it only while single-threaded.
  static void SetGlobalQueueKind(std::optional<QueueKind> kind);
  static std::optional<QueueKind> GlobalQueueKind();

 private:
  friend class EventHandle;

  internal::EventAfter After() const {
    return internal::EventAfter{tie_shuffle_, tie_shuffle_seed_};
  }

  void CheckDelay(SimTime delay) const;

  /// Checks `when` is not in the past and packs the tie-break key of the
  /// next event scheduled with class `cls`.
  uint64_t NextKey(SimTime when, EventClass cls);
  EventHandle Enqueue(SimTime when, EventClass cls, Callback fn);
  void EnqueueDetached(SimTime when, EventClass cls, Callback fn);

  /// Pops and fires the next non-cancelled event; returns false if none
  /// remains at or before `limit`.
  bool Step(SimTime limit);

  /// The profiled dispatch loop: identical Step sequence to Run/RunUntil,
  /// with the prof frame's clock reads amortized over ~1k-event chunks
  /// (sim.dispatch). Returns the number fired.
  uint64_t StepChunkedProf(SimTime limit, uint64_t max_events);

  /// Called by EventHandle::Cancel for a still-queued event; sweeps the
  /// queue once cancelled events exceed a kind-specific share of it.
  void OnCancelled();

  /// Drops the queue's reference on a slot that is leaving the queue.
  void ReleaseQueueRef(internal::EventSlot* slot);

  /// Tie-race detector bookkeeping for one fired event.
  void NoteFired(SimTime time, uint64_t key);

  SimulationOptions options_;
  bool tie_shuffle_ = false;
  uint64_t tie_shuffle_seed_ = 0;
  /// Declared before `queue_`: draining the queue destroys callbacks whose
  /// spill boxes deallocate into this arena.
  Arena arena_;
  internal::EventSlotPool* pool_;
  internal::EventQueue queue_;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
  uint64_t events_fired_ = 0;
  std::size_t cancelled_in_queue_ = 0;

  // Tie-race detector state.
  TieStats ties_;
  SimTime last_fired_time_ = 0.0;
  uint64_t last_fired_class_ = 0;
  uint64_t current_tie_group_ = 0;
};

}  // namespace dmr::sim

#endif  // DMR_SIM_SIMULATION_H_
