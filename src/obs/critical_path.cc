#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace dmr::obs {

namespace {

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

const char* EventGraph::EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSubmit: return "submit";
    case EventType::kProviderDecision: return "provider_decision";
    case EventType::kSplitAdded: return "split_added";
    case EventType::kAttemptLaunched: return "attempt_launched";
    case EventType::kAttemptDone: return "attempt_done";
    case EventType::kSampleSatisfiable: return "sample_satisfiable";
    case EventType::kInputFinalized: return "input_finalized";
    case EventType::kReduceStarted: return "reduce_started";
    case EventType::kJobCompleted: return "job_completed";
  }
  return "unknown";
}

const char* EventGraph::EdgeCategoryName(EdgeCategory category) {
  switch (category) {
    case EdgeCategory::kProvider: return "provider";
    case EdgeCategory::kQueueing: return "queueing";
    case EdgeCategory::kExecution: return "execution";
    case EdgeCategory::kBarrier: return "barrier";
    case EdgeCategory::kReduce: return "reduce";
  }
  return "unknown";
}

int EventGraph::InstantRank(LifecycleStep step) {
  switch (step) {
    case LifecycleStep::kSubmit: return 0;
    case LifecycleStep::kAttemptEnd: return 1;
    case LifecycleStep::kSampleSatisfiable: return 2;
    case LifecycleStep::kProviderDecision: return 3;
    case LifecycleStep::kSplitQueued: return 4;
    case LifecycleStep::kInputFinalized: return 5;
    case LifecycleStep::kReduceStart: return 6;
    case LifecycleStep::kMapLaunch:
    case LifecycleStep::kBackupLaunch: return 7;
    case LifecycleStep::kJobComplete: return 8;
    default: return -1;
  }
}

void EventGraph::Record(const LifecycleRecord& rec) {
  if (InstantRank(rec.step) < 0) return;
  if (!pending_.empty() && pending_.front().t != rec.t) FlushPending();
  // The views only live for the report call; the graph never reads them.
  LifecycleRecord& kept = pending_.emplace_back(rec);
  kept.user = {};
  kept.diagnostics = {};
}

void EventGraph::FlushPending() {
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end(),
            [](const LifecycleRecord& a, const LifecycleRecord& b) {
              int ra = InstantRank(a.step);
              int rb = InstantRank(b.step);
              if (ra != rb) return ra < rb;
              if (a.job != b.job) return a.job < b.job;
              if (a.split != b.split) return a.split < b.split;
              if (a.node != b.node) return a.node < b.node;
              return a.slot < b.slot;
            });
  // Swap the batch out so an Apply can never observe a half-flushed buffer.
  std::vector<LifecycleRecord> batch;
  batch.swap(pending_);
  for (const LifecycleRecord& rec : batch) Apply(rec);
}

void EventGraph::Apply(const LifecycleRecord& rec) {
  const int job = rec.job;
  const double t = rec.t;
  switch (rec.step) {
    case LifecycleStep::kSubmit:
      submit_[job] = AddEvent(EventType::kSubmit, t, job, -1, -1, -1);
      break;
    case LifecycleStep::kProviderDecision: {
      int32_t id = AddEvent(EventType::kProviderDecision, t, job, -1, -1, -1);
      // The decision waits on the eval timer since the previous decision
      // (or submit) and on the map completions it evaluated.
      AddParent(id, InputSourceOf(job), EdgeCategory::kProvider);
      if (auto it = last_done_.find(job); it != last_done_.end()) {
        AddParent(id, it->second, EdgeCategory::kProvider);
      }
      last_provider_[job] = id;
      break;
    }
    case LifecycleStep::kSplitQueued: {
      int32_t id = AddEvent(EventType::kSplitAdded, t, job, rec.split, -1, -1);
      AddParent(id, InputSourceOf(job), EdgeCategory::kProvider);
      available_[{job, rec.split}] = id;
      break;
    }
    case LifecycleStep::kMapLaunch:
    case LifecycleStep::kBackupLaunch: {
      const std::pair<int, int> slot{rec.node, rec.slot};
      int32_t id = AddEvent(EventType::kAttemptLaunched, t, job, rec.split,
                            rec.node, rec.slot);
      // The launch was gated by the split existing (retry: the prior
      // failure) and by the slot being free; whichever came later binds.
      if (auto it = available_.find({job, rec.split});
          it != available_.end()) {
        AddParent(id, it->second, EdgeCategory::kQueueing);
      } else if (rec.step == LifecycleStep::kBackupLaunch) {
        // Backups copy an already-running split; hang them off the input.
        AddParent(id, InputSourceOf(job), EdgeCategory::kQueueing);
      }
      if (auto it = slot_release_.find(slot); it != slot_release_.end()) {
        AddParent(id, it->second, EdgeCategory::kQueueing);
      }
      open_launch_[slot] = id;
      break;
    }
    case LifecycleStep::kAttemptEnd: {
      const std::pair<int, int> slot{rec.node, rec.slot};
      int32_t id = AddEvent(EventType::kAttemptDone, t, job, rec.split,
                            rec.node, rec.slot);
      if (auto it = open_launch_.find(slot); it != open_launch_.end()) {
        AddParent(id, it->second, EdgeCategory::kExecution);
        open_launch_.erase(it);
      }
      slot_release_[slot] = id;
      if (rec.outcome == Outcome::kOk) {
        last_done_[job] = id;
        available_.erase({job, rec.split});
      } else if (rec.outcome == Outcome::kFailed) {
        // The retry's launch will wait on this failure.
        available_[{job, rec.split}] = id;
      }
      break;
    }
    case LifecycleStep::kSampleSatisfiable: {
      if (satisfiable_.count(job) != 0) break;
      int32_t id =
          AddEvent(EventType::kSampleSatisfiable, t, job, -1, -1, -1);
      if (auto it = last_done_.find(job); it != last_done_.end()) {
        AddParent(id, it->second, EdgeCategory::kBarrier);
      } else {
        AddParent(id, InputSourceOf(job), EdgeCategory::kBarrier);
      }
      satisfiable_[job] = id;
      break;
    }
    case LifecycleStep::kInputFinalized: {
      int32_t id = AddEvent(EventType::kInputFinalized, t, job, -1, -1, -1);
      if (auto it = satisfiable_.find(job); it != satisfiable_.end()) {
        AddParent(id, it->second, EdgeCategory::kProvider);
      }
      AddParent(id, InputSourceOf(job), EdgeCategory::kProvider);
      finalized_[job] = id;
      break;
    }
    case LifecycleStep::kReduceStart: {
      int32_t id = AddEvent(EventType::kReduceStarted, t, job, -1, -1, -1);
      // Map-phase barrier: the reduce waits for the input set to be final
      // and for the last map of the job to drain.
      if (auto it = finalized_.find(job); it != finalized_.end()) {
        AddParent(id, it->second, EdgeCategory::kBarrier);
      }
      if (auto it = last_done_.find(job); it != last_done_.end()) {
        AddParent(id, it->second, EdgeCategory::kBarrier);
      } else {
        AddParent(id, InputSourceOf(job), EdgeCategory::kBarrier);
      }
      reduce_[job] = id;
      break;
    }
    case LifecycleStep::kJobComplete: {
      int32_t id = AddEvent(EventType::kJobCompleted, t, job, -1, -1, -1);
      if (auto it = reduce_.find(job); it != reduce_.end()) {
        AddParent(id, it->second, EdgeCategory::kReduce);
      } else if (auto it2 = last_done_.find(job); it2 != last_done_.end()) {
        AddParent(id, it2->second, EdgeCategory::kExecution);
      } else {
        AddParent(id, InputSourceOf(job), EdgeCategory::kProvider);
      }
      break;
    }
    default:
      break;
  }
}

int32_t EventGraph::AddEvent(EventType type, double t, int job, int detail,
                             int node, int slot) {
  events_.push_back(Event{type, t, job, detail, node, slot, {}});
  return static_cast<int32_t>(events_.size() - 1);
}

void EventGraph::AddParent(int32_t child, int32_t parent,
                           EdgeCategory category) {
  if (parent < 0) return;
  DMR_CHECK(parent < child) << "event graph parent must precede child";
  events_[child].parents.emplace_back(parent, category);
}

int32_t EventGraph::InputSourceOf(int job) const {
  if (auto it = last_provider_.find(job); it != last_provider_.end()) {
    return it->second;
  }
  if (auto it = submit_.find(job); it != submit_.end()) return it->second;
  return -1;
}

std::vector<EventGraph::JobPath> EventGraph::AnalyzeCriticalPaths() const {
  // Logically const: materializing the final instant's buffered
  // notifications changes the representation, not the recorded set.
  const_cast<EventGraph*>(this)->FlushPending();
  std::vector<JobPath> paths;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].type != EventType::kJobCompleted) continue;

    JobPath path;
    path.job = events_[i].job;
    path.finish_time = events_[i].t;
    if (auto it = submit_.find(path.job); it != submit_.end()) {
      path.response_time = path.finish_time - events_[it->second].t;
    }

    // Walk binding parents back to a root. Parent ids are strictly smaller
    // than child ids, so the walk terminates.
    std::vector<PathStep> rev;
    int32_t cur = static_cast<int32_t>(i);
    while (cur >= 0) {
      const Event& e = events_[cur];
      PathStep step;
      step.type = e.type;
      step.t = e.t;
      step.job = e.job;
      step.detail = e.detail;
      step.node = e.node;

      if (e.parents.empty()) {
        rev.push_back(step);
        path.root_job = e.job;
        path.root_type = e.type;
        break;
      }
      // Binding parent: latest timestamp; ties break towards the
      // later-recorded event (deterministic, matches DES causal order).
      size_t best = 0;
      for (size_t p = 1; p < e.parents.size(); ++p) {
        const Event& cand = events_[e.parents[p].first];
        const Event& cur_best = events_[e.parents[best].first];
        if (cand.t > cur_best.t ||
            (cand.t == cur_best.t &&
             e.parents[p].first > e.parents[best].first)) {
          best = p;
        }
      }
      const Event& bind = events_[e.parents[best].first];
      step.dur = e.t - bind.t;
      step.category = e.parents[best].second;
      if (e.parents.size() >= 2) {
        double runner_up = -1.0;
        for (size_t p = 0; p < e.parents.size(); ++p) {
          if (p == best) continue;
          runner_up = std::max(runner_up, events_[e.parents[p].first].t);
        }
        step.slack = bind.t - runner_up;
      } else {
        step.slack = step.dur;
      }
      rev.push_back(step);
      cur = e.parents[best].first;
    }

    std::reverse(rev.begin(), rev.end());
    path.steps = std::move(rev);
    if (!path.steps.empty()) {
      path.path_time = path.finish_time - path.steps.front().t;
      if (submit_.count(path.job) == 0) path.response_time = path.path_time;
      // Skip the root step: it has dur 0 and a meaningless category.
      for (size_t s = 1; s < path.steps.size(); ++s) {
        path.breakdown[path.steps[s].category] += path.steps[s].dur;
      }
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string EventGraph::AnalysisToJson(size_t max_path_steps) const {
  std::vector<JobPath> paths = AnalyzeCriticalPaths();
  std::string out = "{\"jobs\": [";
  for (size_t i = 0; i < paths.size(); ++i) {
    const JobPath& p = paths[i];
    if (i > 0) out += ",";
    out += "\n      {\"job\": " + std::to_string(p.job) +
           ", \"finish_time\": " + Num(p.finish_time) +
           ", \"response_time\": " + Num(p.response_time) +
           ", \"path_time\": " + Num(p.path_time) +
           ", \"root_job\": " + std::to_string(p.root_job) +
           ", \"root_type\": \"" + EventTypeName(p.root_type) + "\"";
    out += ", \"breakdown\": {";
    bool first = true;
    for (const auto& [cat, secs] : p.breakdown) {
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + EdgeCategoryName(cat) + "\": " + Num(secs);
    }
    out += "}";
    size_t begin = p.steps.size() > max_path_steps
                       ? p.steps.size() - max_path_steps
                       : 0;
    out += ", \"path_truncated\": ";
    out += begin > 0 ? "true" : "false";
    out += ", \"path\": [";
    for (size_t s = begin; s < p.steps.size(); ++s) {
      const PathStep& st = p.steps[s];
      if (s > begin) out += ",";
      out += "\n        {\"event\": \"" + std::string(EventTypeName(st.type)) +
             "\", \"t\": " + Num(st.t) + ", \"job\": " +
             std::to_string(st.job);
      if (st.detail >= 0) out += ", \"split\": " + std::to_string(st.detail);
      if (st.node >= 0) out += ", \"node\": " + std::to_string(st.node);
      if (s > 0) {
        out += std::string(", \"category\": \"") +
               EdgeCategoryName(st.category) + "\", \"dur\": " + Num(st.dur) +
               ", \"slack\": " + Num(st.slack);
      }
      out += "}";
    }
    out += p.steps.size() - begin > 0 ? "\n      ]}" : "]}";
  }
  out += paths.empty() ? "]}" : "\n    ]}";
  return out;
}

}  // namespace dmr::obs
