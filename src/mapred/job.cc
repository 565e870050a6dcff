#include "mapred/job.h"

#include "common/logging.h"

namespace dmr::mapred {

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kMapping:
      return "MAPPING";
    case JobState::kReducing:
      return "REDUCING";
    case JobState::kSucceeded:
      return "SUCCEEDED";
    case JobState::kKilled:
      return "KILLED";
  }
  return "?";
}

Job::Job(int id, JobConf conf, std::shared_ptr<const SplitTable> input,
         MapOutputModel output_model, double submit_time)
    : id_(id),
      conf_(std::move(conf)),
      sample_size_(conf_.sample_size()),
      submit_time_(submit_time),
      input_(std::move(input)),
      splits_total_(static_cast<int>(input_->size())),
      output_model_(std::move(output_model)) {
  DMR_CHECK(output_model_ != nullptr);
}

void Job::IndexPending(SplitId split) {
  const uint32_t slot = static_cast<uint32_t>(pending_.size());
  pending_.push_back(split);
  ++pending_live_;
  for (const SplitLocation& loc : input_->locations(split)) {
    const size_t node = static_cast<size_t>(loc.node_id);
    if (node >= pending_by_node_.size()) pending_by_node_.resize(node + 1);
    pending_by_node_[node].slots.push_back(slot);
  }
}

void Job::AddSplits(std::span<const SplitId> splits, double now) {
  DMR_CHECK(!input_finalized_) << "job " << id_ << ": input already final";
  if (queued_time_.empty()) queued_time_.resize(input_->size());
  for (SplitId split : splits) {
    queued_time_[split] = now;
    IndexPending(split);
    ++splits_added_;
    records_added_ += (*input_)[split].num_records;
  }
}

SplitId Job::TakeSlot(uint32_t slot) {
  SplitId split = pending_[slot];
  DMR_CHECK(split != kTaken);
  pending_[slot] = kTaken;
  --pending_live_;
  // Stale entries left in other nodes' queues are pruned lazily.
  return split;
}

int64_t Job::FrontLiveSlot(int node_id) const {
  if (node_id < 0 || static_cast<size_t>(node_id) >= pending_by_node_.size()) {
    return -1;
  }
  NodeQueue& queue = pending_by_node_[node_id];
  while (queue.head < queue.slots.size() &&
         pending_[queue.slots[queue.head]] == kTaken) {
    ++queue.head;  // prune entries taken via another replica
  }
  if (queue.size() == 0) {
    queue.slots.clear();
    queue.head = 0;
    return -1;
  }
  return queue.slots[queue.head];
}

bool Job::HasLocalPending(int node_id) const {
  return FrontLiveSlot(node_id) >= 0;
}

std::optional<SplitId> Job::TakeLocalPending(int node_id) {
  int64_t slot = FrontLiveSlot(node_id);
  if (slot < 0) return std::nullopt;
  ++pending_by_node_[node_id].head;
  return TakeSlot(static_cast<uint32_t>(slot));
}

std::optional<SplitId> Job::TakeAnyPending() {
  if (pending_live_ == 0) return std::nullopt;
  // Prefer the node with the deepest backlog (stale entries behind a live
  // front included) so remote pulls drain hot spots first; ties go to the
  // lowest node id.
  int best_node = -1;
  size_t best_depth = 0;
  for (size_t node = 0; node < pending_by_node_.size(); ++node) {
    if (FrontLiveSlot(static_cast<int>(node)) < 0) continue;
    if (pending_by_node_[node].size() > best_depth) {
      best_depth = pending_by_node_[node].size();
      best_node = static_cast<int>(node);
    }
  }
  DMR_CHECK_GE(best_node, 0);
  return TakeLocalPending(best_node);
}

size_t Job::FirstLiveSlot() const {
  while (first_live_ < pending_.size() && pending_[first_live_] == kTaken) {
    ++first_live_;
  }
  return first_live_;
}

int Job::BestPendingLayoutQuality(int node_id) const {
  int best = -1;
  for (size_t slot = FirstLiveSlot(); slot < pending_.size(); ++slot) {
    if (pending_[slot] == kTaken) continue;
    for (const SplitLocation& loc : input_->locations(pending_[slot])) {
      if (node_id >= 0 && loc.node_id != node_id) continue;
      int quality = dfs::LayoutQuality(loc.layout);
      if (quality > best) best = quality;
    }
  }
  return best;
}

std::optional<SplitId> Job::TakeBestLayoutPending(int node_id) {
  int best_quality = -1;
  int64_t best_slot = -1;
  // Slots are in insertion order, and only a strictly better quality
  // displaces the candidate, so ties keep FIFO order.
  for (size_t slot = FirstLiveSlot(); slot < pending_.size(); ++slot) {
    if (pending_[slot] == kTaken) continue;
    for (const SplitLocation& loc : input_->locations(pending_[slot])) {
      if (node_id >= 0 && loc.node_id != node_id) continue;
      int quality = dfs::LayoutQuality(loc.layout);
      if (quality > best_quality) {
        best_quality = quality;
        best_slot = static_cast<int64_t>(slot);
      }
    }
  }
  if (best_slot < 0) return std::nullopt;
  return TakeSlot(static_cast<uint32_t>(best_slot));
}

void Job::ReleaseInput() {
  DMR_CHECK_EQ(pending_live_, 0) << "job " << id_;
  input_.reset();
  // Move-assign empty vectors: `= {}` would keep the capacity.
  queued_time_ = std::vector<double>();
  pending_ = std::vector<SplitId>();
  first_live_ = 0;
  pending_by_node_ = std::vector<NodeQueue>();
}

int Job::OnMapLaunched(bool local) {
  ++maps_running_;
  if (local) {
    ++local_maps_;
  } else {
    ++remote_maps_;
  }
  return next_task_id_++;
}

void Job::OnMapFailed() {
  DMR_CHECK_GT(maps_running_, 0) << "job " << id_;
  --maps_running_;
  ++failed_maps_;
}

void Job::OnMapCompleted(SplitId split, uint64_t output_records) {
  DMR_CHECK_GT(maps_running_, 0) << "job " << id_;
  --maps_running_;
  ++maps_completed_;
  records_processed_ += (*input_)[split].num_records;
  output_records_ += output_records;
}

void Job::RecordMapDuration(double seconds) {
  map_duration_sum_ += seconds;
  ++map_duration_count_;
}

double Job::MeanMapDuration() const {
  if (map_duration_count_ == 0) return 0.0;
  return map_duration_sum_ / static_cast<double>(map_duration_count_);
}

bool Job::ReadyForReduce() const {
  return input_finalized_ && pending_live_ == 0 && maps_running_ == 0 &&
         state_ == JobState::kMapping;
}

JobProgress Job::GetProgress(double now) const {
  JobProgress p;
  p.splits_added = splits_added_;
  p.splits_total = splits_total_;
  p.maps_completed = maps_completed_;
  p.maps_running = maps_running_;
  p.maps_pending = pending_count();
  p.records_processed = records_processed_;
  p.output_records = output_records_;
  p.pending_records = records_added_ - records_processed_;
  p.now = now;
  return p;
}

JobStats Job::GetStats() const {
  JobStats s;
  s.job_id = id_;
  s.name = conf_.name();
  s.user = conf_.user();
  s.policy = conf_.policy();
  s.submit_time = submit_time_;
  s.finish_time = finish_time_;
  s.splits_total = splits_total_;
  s.splits_processed = maps_completed_;
  s.records_processed = records_processed_;
  s.output_records = output_records_;
  s.result_records = result_records_;
  s.local_maps = local_maps_;
  s.remote_maps = remote_maps_;
  s.failed_maps = failed_maps_;
  s.speculative_maps = speculative_maps_;
  s.counters = CurrentCounters();
  return s;
}

Counters Job::CurrentCounters() const {
  Counters counters;
  counters.Add(kCounterMapInputRecords,
               static_cast<int64_t>(records_processed_));
  counters.Add(kCounterMapOutputRecords,
               static_cast<int64_t>(output_records_));
  counters.Add(kCounterSplitsProcessed, maps_completed_);
  counters.Add(kCounterLocalMaps, local_maps_);
  counters.Add(kCounterRemoteMaps, remote_maps_);
  counters.Add(kCounterFailedMaps, failed_maps_);
  counters.Add(kCounterSpeculativeMaps, speculative_maps_);
  counters.Add(kCounterReduceInputRecords,
               static_cast<int64_t>(output_records_));
  counters.Add(kCounterResultRecords,
               static_cast<int64_t>(result_records_));
  return counters;
}

}  // namespace dmr::mapred
