#ifndef DMR_MAPRED_JOB_HISTORY_H_
#define DMR_MAPRED_JOB_HISTORY_H_

#include <string>
#include <vector>

#include "obs/lifecycle.h"

namespace dmr::mapred {

// The lifecycle record vocabulary (obs/lifecycle.h).
using obs::FreeState;
using obs::LifecycleRecord;
using obs::LifecycleStep;
using obs::Outcome;

/// \brief Kinds of recorded lifecycle events (the analogue of Hadoop's
/// JobHistory log).
enum class JobEventKind {
  kSubmitted,
  kSplitsAdded,
  kInputFinalized,
  kMapLaunched,
  kBackupLaunched,
  kMapCompleted,
  kMapFailed,
  kAttemptKilled,
  kReduceStarted,
  kJobCompleted,
};

const char* JobEventKindToString(JobEventKind kind);

/// \brief One timestamped lifecycle event.
struct JobEvent {
  double time = 0.0;
  int job_id = -1;
  JobEventKind kind = JobEventKind::kSubmitted;
  /// Split index for task events, count for kSplitsAdded, -1 otherwise.
  int detail = -1;
  /// Node for task events, -1 otherwise.
  int node_id = -1;

  std::string ToString() const;
};

/// \brief An append-only log of job lifecycle events, recorded by the
/// JobTracker. Useful for debugging policies and for rendering execution
/// timelines (see RenderTimeline / examples/job_timeline).
class JobHistory {
 public:
  /// Appends a lifecycle step's event; steps with no JobEventKind (provider
  /// decisions, demand changes, ...) are ignored.
  void Record(const LifecycleRecord& rec);

  const std::vector<JobEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Events of one job, in time order.
  std::vector<JobEvent> ForJob(int job_id) const;

  /// Renders `events` as a JSON array of event objects
  /// (`[{"time": ..., "job": ..., "kind": "...", ...}, ...]`).
  static std::string ToJson(const std::vector<JobEvent>& events);
  /// The whole log as JSON.
  std::string ToJson() const { return ToJson(events_); }

  /// Renders an ASCII occupancy timeline for a job: one row per
  /// `bucket_seconds`, bar length = map tasks running in that bucket.
  std::string RenderTimeline(int job_id, double bucket_seconds = 5.0) const;

  void Clear() { events_.clear(); }

 private:
  std::vector<JobEvent> events_;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_JOB_HISTORY_H_
