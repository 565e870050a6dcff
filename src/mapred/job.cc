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

Job::Job(int id, JobConf conf, int splits_total, MapOutputModel output_model,
         double submit_time)
    : id_(id),
      conf_(std::move(conf)),
      submit_time_(submit_time),
      splits_total_(splits_total),
      output_model_(std::move(output_model)) {
  DMR_CHECK(output_model_ != nullptr);
}

InputSplit& Job::IndexPending(const InputSplit& split) {
  int id = next_pending_id_++;
  InputSplit& stored = pending_splits_[id] = split;
  for (const auto& loc : split.all_locations()) {
    pending_ids_by_node_[loc.node_id].push_back(id);
  }
  return stored;
}

void Job::AddSplits(const std::vector<InputSplit>& splits, double now) {
  DMR_CHECK(!input_finalized_) << "job " << id_ << ": input already final";
  for (const auto& split : splits) {
    IndexPending(split).queued_time = now;
    ++splits_added_;
    records_added_ += split.num_records;
  }
}

void Job::RequeueSplit(const InputSplit& split) { IndexPending(split); }

InputSplit Job::TakePendingById(int id) {
  auto it = pending_splits_.find(id);
  DMR_CHECK(it != pending_splits_.end());
  InputSplit split = it->second;
  pending_splits_.erase(it);
  // Stale ids left in other nodes' queues are pruned lazily.
  return split;
}

int Job::FrontLiveId(int node_id) const {
  auto it = pending_ids_by_node_.find(node_id);
  if (it == pending_ids_by_node_.end()) return -1;
  auto& queue = it->second;
  while (!queue.empty() && !pending_splits_.count(queue.front())) {
    queue.pop_front();  // prune entries taken via another replica
  }
  if (queue.empty()) {
    pending_ids_by_node_.erase(it);
    return -1;
  }
  return queue.front();
}

bool Job::HasLocalPending(int node_id) const {
  return FrontLiveId(node_id) >= 0;
}

std::optional<InputSplit> Job::TakeLocalPending(int node_id) {
  int id = FrontLiveId(node_id);
  if (id < 0) return std::nullopt;
  pending_ids_by_node_[node_id].pop_front();
  return TakePendingById(id);
}

std::optional<InputSplit> Job::TakeAnyPending() {
  if (pending_splits_.empty()) return std::nullopt;
  // Prefer the node with the deepest live backlog so remote pulls drain
  // hot spots first.
  int best_node = -1;
  size_t best_depth = 0;
  for (auto it = pending_ids_by_node_.begin();
       it != pending_ids_by_node_.end();) {
    int node = it->first;
    if (FrontLiveId(node) < 0) {
      // FrontLiveId erased the entry; restart iteration at the next node.
      it = pending_ids_by_node_.upper_bound(node);
      continue;
    }
    if (it->second.size() > best_depth) {
      best_depth = it->second.size();
      best_node = node;
    }
    ++it;
  }
  DMR_CHECK_GE(best_node, 0);
  return TakeLocalPending(best_node);
}

int Job::BestPendingLayoutQuality(int node_id) const {
  int best = -1;
  for (const auto& [id, split] : pending_splits_) {
    for (const auto& loc : split.all_locations()) {
      if (node_id >= 0 && loc.node_id != node_id) continue;
      int quality = dfs::LayoutQuality(loc.layout);
      if (quality > best) best = quality;
    }
  }
  return best;
}

std::optional<InputSplit> Job::TakeBestLayoutPending(int node_id) {
  int best_quality = -1;
  int best_id = -1;
  // pending_splits_ is ordered by insertion id, and only a strictly
  // better quality displaces the candidate, so ties keep FIFO order.
  for (const auto& [id, split] : pending_splits_) {
    for (const auto& loc : split.all_locations()) {
      if (node_id >= 0 && loc.node_id != node_id) continue;
      int quality = dfs::LayoutQuality(loc.layout);
      if (quality > best_quality) {
        best_quality = quality;
        best_id = id;
      }
    }
  }
  if (best_id < 0) return std::nullopt;
  return TakePendingById(best_id);
}

int Job::OnMapLaunched(const InputSplit& split, int node_id, bool local) {
  (void)split;
  (void)node_id;
  ++maps_running_;
  if (local) {
    ++local_maps_;
  } else {
    ++remote_maps_;
  }
  return next_task_id_++;
}

void Job::OnMapFailed(const InputSplit& split) {
  (void)split;
  DMR_CHECK_GT(maps_running_, 0) << "job " << id_;
  --maps_running_;
  ++failed_maps_;
}

void Job::OnMapCompleted(const InputSplit& split, uint64_t output_records) {
  DMR_CHECK_GT(maps_running_, 0) << "job " << id_;
  --maps_running_;
  ++maps_completed_;
  records_processed_ += split.num_records;
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
  return input_finalized_ && pending_splits_.empty() && maps_running_ == 0 &&
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
