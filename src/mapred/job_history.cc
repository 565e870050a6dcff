#include "mapred/job_history.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dmr::mapred {

const char* JobEventKindToString(JobEventKind kind) {
  switch (kind) {
    case JobEventKind::kSubmitted:
      return "SUBMITTED";
    case JobEventKind::kSplitsAdded:
      return "SPLITS_ADDED";
    case JobEventKind::kInputFinalized:
      return "INPUT_FINALIZED";
    case JobEventKind::kMapLaunched:
      return "MAP_LAUNCHED";
    case JobEventKind::kBackupLaunched:
      return "BACKUP_LAUNCHED";
    case JobEventKind::kMapCompleted:
      return "MAP_COMPLETED";
    case JobEventKind::kMapFailed:
      return "MAP_FAILED";
    case JobEventKind::kAttemptKilled:
      return "ATTEMPT_KILLED";
    case JobEventKind::kReduceStarted:
      return "REDUCE_STARTED";
    case JobEventKind::kJobCompleted:
      return "JOB_COMPLETED";
  }
  return "?";
}

std::string JobEvent::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "t=%-9.2f job %-3d %-16s detail=%d node=%d",
                time, job_id, JobEventKindToString(kind), detail, node_id);
  return buf;
}

std::string JobHistory::ToJson(const std::vector<JobEvent>& events) {
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const JobEvent& ev = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"time\": %.9g, \"job\": %d, \"kind\": \"%s\", "
                  "\"detail\": %d, \"node\": %d}",
                  i == 0 ? "" : ", ", ev.time, ev.job_id,
                  JobEventKindToString(ev.kind), ev.detail, ev.node_id);
    out += buf;
  }
  out += "]";
  return out;
}

void JobHistory::Record(const LifecycleRecord& rec) {
  auto add = [&](JobEventKind kind, int detail = -1, int node_id = -1) {
    events_.push_back(JobEvent{rec.t, rec.job, kind, detail, node_id});
  };
  switch (rec.step) {
    case LifecycleStep::kSubmit:
      add(JobEventKind::kSubmitted);
      break;
    case LifecycleStep::kSplitsAdded:
      add(JobEventKind::kSplitsAdded, rec.count);
      break;
    case LifecycleStep::kInputFinalized:
      add(JobEventKind::kInputFinalized);
      break;
    case LifecycleStep::kMapLaunch:
      add(JobEventKind::kMapLaunched, rec.split, rec.node);
      break;
    case LifecycleStep::kBackupLaunch:
      add(JobEventKind::kBackupLaunched, rec.split, rec.node);
      break;
    case LifecycleStep::kAttemptEnd:
      add(rec.outcome == Outcome::kOk       ? JobEventKind::kMapCompleted
          : rec.outcome == Outcome::kFailed ? JobEventKind::kMapFailed
                                            : JobEventKind::kAttemptKilled,
          rec.split, rec.node);
      break;
    case LifecycleStep::kReduceStart:
      add(JobEventKind::kReduceStarted, -1, rec.node);
      break;
    case LifecycleStep::kJobComplete:
      add(JobEventKind::kJobCompleted);
      break;
    default:
      break;
  }
}

std::vector<JobEvent> JobHistory::ForJob(int job_id) const {
  std::vector<JobEvent> out;
  for (const auto& ev : events_) {
    if (ev.job_id == job_id) out.push_back(ev);
  }
  return out;
}

std::string JobHistory::RenderTimeline(int job_id,
                                       double bucket_seconds) const {
  std::vector<JobEvent> events = ForJob(job_id);
  if (events.empty()) return "(no events for job)\n";
  if (bucket_seconds <= 0) bucket_seconds = 5.0;

  double start = events.front().time;
  double end = events.back().time;
  int buckets = std::max(1, static_cast<int>(std::ceil(
                                (end - start) / bucket_seconds)) +
                                1);

  // Running-map occupancy per bucket via a sweep over launch/finish events.
  std::vector<int> running(buckets, 0);
  int current = 0;
  size_t next_event = 0;
  for (int b = 0; b < buckets; ++b) {
    double bucket_end = start + (b + 1) * bucket_seconds;
    int peak = current;
    while (next_event < events.size() &&
           events[next_event].time < bucket_end) {
      switch (events[next_event].kind) {
        case JobEventKind::kMapLaunched:
        case JobEventKind::kBackupLaunched:
          ++current;
          break;
        case JobEventKind::kMapCompleted:
        case JobEventKind::kMapFailed:
        case JobEventKind::kAttemptKilled:
          --current;
          break;
        default:
          break;
      }
      peak = std::max(peak, current);
      ++next_event;
    }
    running[b] = peak;
  }

  std::string out;
  char line[160];
  for (int b = 0; b < buckets; ++b) {
    int bar = std::min(running[b], 100);
    std::snprintf(line, sizeof(line), "t=%7.1fs |%-s%s (%d)\n",
                  start + b * bucket_seconds,
                  std::string(bar, '#').c_str(),
                  running[b] > 100 ? "+" : "", running[b]);
    out += line;
  }
  return out;
}

}  // namespace dmr::mapred
