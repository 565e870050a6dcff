#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/random.h"
#include "prof/prof.h"

namespace dmr::sim {

namespace {

/// The process-wide tie-shuffle default; see SetGlobalTieShuffle.
std::optional<uint64_t> g_tie_shuffle;

/// The process-wide queue-kind override; see SetGlobalQueueKind.
std::optional<QueueKind> g_queue_kind;

/// SplitMix64's output finalizer over (seed XOR key): a bijection of the
/// key for any fixed seed, so distinct keys never collide and the shuffled
/// order is still total.
uint64_t ShuffleKey(uint64_t seed, uint64_t key) {
  return Rng(seed ^ key).Next();
}

}  // namespace

namespace internal {

bool EventAfter::operator()(const Event& a, const Event& b) const {
  if (a.time != b.time) return a.time > b.time;
  if (!shuffle) return a.key > b.key;
  const uint64_t a_class = a.key >> kClassShift;
  const uint64_t b_class = b.key >> kClassShift;
  if (a_class != b_class) return a_class > b_class;
  return ShuffleKey(seed, a.key) > ShuffleKey(seed, b.key);
}

void EventSlotPool::Grow() {
  auto chunk = std::make_unique<EventSlot[]>(kChunkSlots);
  for (std::size_t i = 0; i < kChunkSlots; ++i) {
    chunk[i].pool = this;
    chunk[i].next_free = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
}

void EventQueue::Init(QueueKind kind, double bucket_width, int num_buckets,
                      EventAfter after, std::size_t* cancelled_counter) {
  DMR_CHECK_GT(bucket_width, 0.0);
  DMR_CHECK_GE(num_buckets, 1);
  kind_ = kind;
  after_ = after;
  cancelled_counter_ = cancelled_counter;
  width_ = bucket_width;
  inv_width_ = 1.0 / bucket_width;
  if (kind_ == QueueKind::kCalendar) {
    buckets_.clear();
    buckets_.resize(static_cast<std::size_t>(num_buckets));
    horizon_ = epoch_ + width_ * static_cast<double>(buckets_.size());
  }
}

void EventQueue::ReleaseCancelled(Event& ev) {
  ev.slot->owner = nullptr;
  SlotRelease(ev.slot);
  --*cancelled_counter_;
}

std::size_t EventQueue::BucketIndex(SimTime t) const {
  const double offset = (t - epoch_) * inv_width_;
  std::size_t idx =
      offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  if (idx < cur_) idx = cur_;
  return idx;
}

void EventQueue::Push(Event&& ev) {
  ++size_;
  if (kind_ == QueueKind::kBinaryHeap) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), after_);
    return;
  }
  if (size_ == 1) {
    // Empty queue: rebase the bucket window at this event's time so sparse
    // schedules never force a pointless march through empty buckets.
    epoch_ = std::floor(ev.time / width_) * width_;
    horizon_ = epoch_ + width_ * static_cast<double>(buckets_.size());
    cur_ = 0;
    cur_sorted_ = false;
  }
  if (ev.time >= horizon_) {
    overflow_.push_back(std::move(ev));
    return;
  }
  const std::size_t idx = BucketIndex(ev.time);
  std::vector<Event>& bucket = buckets_[idx];
  ++in_buckets_;
  if (idx == cur_ && cur_sorted_) {
    // The current bucket is kept sorted latest-first (so the next event to
    // fire is back()); splice the newcomer into position. Rare: only
    // schedules landing inside the currently-draining bucket take this.
    bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), ev, after_),
                  std::move(ev));
    return;
  }
  if (bucket.capacity() == 0) bucket.reserve(8);
  bucket.push_back(std::move(ev));
}

std::size_t EventQueue::Compact(std::vector<Event>& v) {
  auto keep = v.begin();
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->slot != nullptr && it->slot->cancelled) {
      ReleaseCancelled(*it);
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  const std::size_t removed = static_cast<std::size_t>(v.end() - keep);
  v.erase(keep, v.end());
  return removed;
}

void EventQueue::Refill() {
  static const prof::PhaseId kRefillPhase =
      prof::RegisterPhase("sim", "queue_refill");
  prof::ScopedTimer prof_frame(kRefillPhase);
  SimTime tmin = overflow_.front().time;
  for (const Event& ev : overflow_) tmin = std::min(tmin, ev.time);
  epoch_ = std::floor(tmin / width_) * width_;
  horizon_ = epoch_ + width_ * static_cast<double>(buckets_.size());
  cur_ = 0;
  cur_sorted_ = false;
  auto keep = overflow_.begin();
  for (auto it = overflow_.begin(); it != overflow_.end(); ++it) {
    if (it->time < horizon_) {
      buckets_[BucketIndex(it->time)].push_back(std::move(*it));
      ++in_buckets_;
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  overflow_.erase(keep, overflow_.end());
  cur_ = BucketIndex(tmin);
}

bool EventQueue::PrepareCurrent() {
  while (size_ > 0) {
    if (in_buckets_ == 0) {
      // Only the overflow tier holds events (size_ > 0 guarantees it is
      // non-empty in calendar mode); open a new window there.
      Refill();
      continue;
    }
    if (buckets_[cur_].empty()) {
      // in_buckets_ > 0 and pushes are clamped to >= cur_, so a non-empty
      // bucket exists ahead.
      do {
        ++cur_;
      } while (buckets_[cur_].empty());
      cur_sorted_ = false;
      continue;
    }
    if (!cur_sorted_) {
      // Order the bucket once, latest-first, when the cursor arrives:
      // buckets are small by construction, so a sort beats heap
      // maintenance and makes every subsequent pop a plain pop_back().
      std::vector<Event>& bucket = buckets_[cur_];
      const std::size_t removed = Compact(bucket);
      in_buckets_ -= removed;
      size_ -= removed;
      std::sort(bucket.begin(), bucket.end(), after_);
      cur_sorted_ = true;
      if (bucket.empty()) continue;  // bucket was all tombstones
    }
    return true;
  }
  return false;
}

Event* EventQueue::PeekLive() {
  if (kind_ == QueueKind::kBinaryHeap) {
    while (!heap_.empty() && heap_.front().slot != nullptr &&
           heap_.front().slot->cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(), after_);
      ReleaseCancelled(heap_.back());
      heap_.pop_back();
      --size_;
    }
    return heap_.empty() ? nullptr : &heap_.front();
  }
  for (;;) {
    if (!PrepareCurrent()) return nullptr;
    std::vector<Event>& bucket = buckets_[cur_];
    EventSlot* slot = bucket.back().slot;
    if (slot == nullptr || !slot->cancelled) return &bucket.back();
    ReleaseCancelled(bucket.back());
    bucket.pop_back();
    --in_buckets_;
    --size_;
  }
}

Event EventQueue::PopLive() {
  if (kind_ == QueueKind::kBinaryHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), after_);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    --size_;
    return ev;
  }
  std::vector<Event>& bucket = buckets_[cur_];
  Event ev = std::move(bucket.back());
  bucket.pop_back();
  --in_buckets_;
  --size_;
  return ev;
}

std::size_t EventQueue::PurgeCancelled() {
  static const prof::PhaseId kPurgePhase =
      prof::RegisterPhase("sim", "queue_purge");
  prof::ScopedTimer prof_frame(kPurgePhase);
  std::size_t removed = 0;
  if (kind_ == QueueKind::kBinaryHeap) {
    removed = Compact(heap_);
    std::make_heap(heap_.begin(), heap_.end(), after_);
    size_ -= removed;
    return removed;
  }
  for (std::vector<Event>& bucket : buckets_) {
    const std::size_t n = Compact(bucket);
    removed += n;
    in_buckets_ -= n;
  }
  removed += Compact(overflow_);
  size_ -= removed;
  // Compaction may have disturbed the current bucket; PrepareCurrent
  // re-sorts it on the next dequeue.
  cur_sorted_ = false;
  return removed;
}

}  // namespace internal

void EventHandle::Cancel() {
  if (!slot_ || slot_->cancelled || slot_->fired) return;
  slot_->cancelled = true;
  if (slot_->owner != nullptr) slot_->owner->OnCancelled();
}

Simulation::Simulation() : Simulation(SimulationOptions{}) {}

Simulation::Simulation(const SimulationOptions& options)
    : options_(options), pool_(internal::EventSlotPool::Create()) {
  if (g_queue_kind.has_value()) options_.queue = *g_queue_kind;
  queue_.Init(options_.queue, options_.bucket_width, options_.num_buckets,
              After(), &cancelled_in_queue_);
  if (g_tie_shuffle.has_value()) EnableTieShuffle(*g_tie_shuffle);
}

Simulation::~Simulation() {
  queue_.Drain([](internal::Event& ev) {
    if (ev.slot == nullptr) return;  // detached: nothing to release
    ev.slot->cancelled = true;
    ev.slot->owner = nullptr;
    internal::SlotRelease(ev.slot);
  });
  pool_->DropOwnerRef();
}

void Simulation::SetGlobalTieShuffle(std::optional<uint64_t> seed) {
  g_tie_shuffle = seed;
}

std::optional<uint64_t> Simulation::GlobalTieShuffle() {
  return g_tie_shuffle;
}

void Simulation::SetGlobalQueueKind(std::optional<QueueKind> kind) {
  g_queue_kind = kind;
}

std::optional<QueueKind> Simulation::GlobalQueueKind() {
  return g_queue_kind;
}

void Simulation::EnableTieShuffle(uint64_t seed) {
  DMR_CHECK_EQ(next_seq_, uint64_t{0})
      << "EnableTieShuffle must precede all scheduling";
  tie_shuffle_ = true;
  tie_shuffle_seed_ = seed;
  queue_.SetComparator(After());
}

void Simulation::NoteFired(SimTime time, uint64_t key) {
  const uint64_t cls = key >> internal::kClassShift;
  if (events_fired_ > 1 && time == last_fired_time_ &&
      cls == last_fired_class_) {
    ++current_tie_group_;
    // The first event of the group retroactively becomes tied too.
    ties_.tied_events += current_tie_group_ == 2 ? 2 : 1;
    if (current_tie_group_ == 2) ++ties_.groups;
    if (current_tie_group_ > ties_.max_group) {
      ties_.max_group = current_tie_group_;
    }
  } else {
    current_tie_group_ = 1;
    last_fired_time_ = time;
    last_fired_class_ = cls;
  }
}

void Simulation::CheckDelay(SimTime delay) const {
  DMR_CHECK_GE(delay, 0.0) << "negative delay " << delay;
}

uint64_t Simulation::NextKey(SimTime when, EventClass cls) {
  DMR_CHECK_GE(when, now_) << "scheduling into the past";
  DMR_CHECK_LT(next_seq_, uint64_t{1} << internal::kClassShift)
      << "sequence overflow";
  return (static_cast<uint64_t>(cls) << internal::kClassShift) | next_seq_++;
}

EventHandle Simulation::Enqueue(SimTime when, EventClass cls, Callback fn) {
  const uint64_t key = NextKey(when, cls);
  internal::EventSlot* slot = pool_->Acquire();
  slot->owner = this;
  internal::SlotAddRef(slot);  // the queue's reference
  queue_.Push(internal::Event{when, key, std::move(fn), slot});
  return EventHandle(slot);
}

void Simulation::EnqueueDetached(SimTime when, EventClass cls, Callback fn) {
  const uint64_t key = NextKey(when, cls);
  queue_.Push(internal::Event{when, key, std::move(fn), nullptr});
}

void Simulation::ReleaseQueueRef(internal::EventSlot* slot) {
  slot->owner = nullptr;
  internal::SlotRelease(slot);
}

void Simulation::OnCancelled() {
  static constexpr std::size_t kMinCancelled = 64;
  ++cancelled_in_queue_;
  if (cancelled_in_queue_ < kMinCancelled) return;
  // Binary heap: sweep once tombstones reach 25% of the queue (every
  // skipped tombstone costs a full O(log n) pop). Calendar: wait for 50% —
  // tombstones in the near-future tier are compacted for free when their
  // bucket is sorted, so the global sweep (which walks every bucket
  // plus overflow) pays off only at higher densities. BM_SimCancelPurge
  // covers both boundaries.
  const std::size_t mult =
      queue_.kind() == QueueKind::kBinaryHeap ? 4 : 2;
  if (cancelled_in_queue_ * mult < queue_.size()) return;
  queue_.PurgeCancelled();
}

bool Simulation::Step(SimTime limit) {
  internal::Event* next = queue_.PeekLive();
  if (next == nullptr || next->time > limit) return false;
  internal::Event ev = queue_.PopLive();
  now_ = ev.time;
  if (ev.slot != nullptr) {
    ev.slot->fired = true;
    ReleaseQueueRef(ev.slot);
  }
  ++events_fired_;
  NoteFired(ev.time, ev.key);
  ev.fn();
  return true;
}

uint64_t Simulation::StepChunkedProf(SimTime limit, uint64_t max_events) {
  // Profiled dispatch loop: the frame's two clock reads are amortized over
  // up to 1024 events so enabled cost stays inside the sim_scale 2% budget.
  // Chunk boundaries never change which Step fires next, so the firing
  // order (and every digest) is identical to the unprofiled loop.
  static const prof::PhaseId kDispatchPhase =
      prof::RegisterPhase("sim", "dispatch");
  constexpr uint64_t kChunk = 1024;
  uint64_t fired = 0;
  while (fired < max_events) {
    const uint64_t budget = std::min(kChunk, max_events - fired);
    prof::BeginPhase(kDispatchPhase);
    uint64_t n = 0;
    while (n < budget && Step(limit)) ++n;
    prof::EndPhase(n);
    fired += n;
    if (n < budget) break;
  }
  return fired;
}

uint64_t Simulation::Run(uint64_t max_events) {
  if (prof::Enabled()) {
    static const prof::PhaseId kRunPhase = prof::RegisterPhase("sim", "run");
    prof::ScopedTimer prof_frame(kRunPhase);
    return StepChunkedProf(std::numeric_limits<SimTime>::infinity(),
                           max_events);
  }
  uint64_t fired = 0;
  while (fired < max_events &&
         Step(std::numeric_limits<SimTime>::infinity())) {
    ++fired;
  }
  return fired;
}

uint64_t Simulation::RunUntil(SimTime until) {
  uint64_t fired = 0;
  if (prof::Enabled()) {
    static const prof::PhaseId kRunUntilPhase =
        prof::RegisterPhase("sim", "run_until");
    prof::ScopedTimer prof_frame(kRunUntilPhase);
    fired = StepChunkedProf(until, std::numeric_limits<uint64_t>::max());
  } else {
    while (Step(until)) ++fired;
  }
  if (now_ < until) now_ = until;
  return fired;
}

}  // namespace dmr::sim
