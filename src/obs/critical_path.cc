#include "obs/critical_path.h"

#include <algorithm>
#include <optional>

#include "common/json.h"
#include "common/logging.h"

namespace dmr::obs {

using json::AppendJsonNumber;

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
  // Apply never records, so the batch stays whole while it is applied.
  for (const LifecycleRecord& rec : pending_) Apply(rec);
  pending_.clear();
}

void EventGraph::Apply(const LifecycleRecord& rec) {
  const int job = rec.job;
  const double t = rec.t;
  JobEvents& entry = JobAt(job);
  switch (rec.step) {
    case LifecycleStep::kSubmit:
      entry.submit = AddEvent(EventType::kSubmit, t, job, -1, -1, -1);
      break;
    case LifecycleStep::kProviderDecision: {
      int32_t id = AddEvent(EventType::kProviderDecision, t, job, -1, -1, -1);
      // The decision waits on the eval timer since the previous decision
      // (or submit) and on the map completions it evaluated.
      AddParent(id, InputSourceOf(entry), EdgeCategory::kProvider);
      AddParent(id, entry.last_done, EdgeCategory::kProvider);
      entry.last_provider = id;
      break;
    }
    case LifecycleStep::kSplitQueued: {
      int32_t id = AddEvent(EventType::kSplitAdded, t, job, rec.split, -1, -1);
      AddParent(id, InputSourceOf(entry), EdgeCategory::kProvider);
      SetAvailable(entry, rec.split, id);
      break;
    }
    case LifecycleStep::kMapLaunch:
    case LifecycleStep::kBackupLaunch: {
      int32_t id = AddEvent(EventType::kAttemptLaunched, t, job, rec.split,
                            rec.node, rec.slot);
      // The launch was gated by the split existing (retry: the prior
      // failure) and by the slot being free; whichever came later binds.
      if (int32_t available = AvailableOf(entry, rec.split); available >= 0) {
        AddParent(id, available, EdgeCategory::kQueueing);
      } else if (rec.step == LifecycleStep::kBackupLaunch) {
        // Backups copy an already-running split; hang them off the input.
        AddParent(id, InputSourceOf(entry), EdgeCategory::kQueueing);
      }
      SlotEvents& slot = SlotAt(rec.node, rec.slot);
      AddParent(id, slot.release, EdgeCategory::kQueueing);
      slot.open_launch = id;
      break;
    }
    case LifecycleStep::kAttemptEnd: {
      int32_t id = AddEvent(EventType::kAttemptDone, t, job, rec.split,
                            rec.node, rec.slot);
      SlotEvents& slot = SlotAt(rec.node, rec.slot);
      AddParent(id, slot.open_launch, EdgeCategory::kExecution);
      slot.open_launch = -1;
      slot.release = id;
      if (rec.outcome == Outcome::kOk) {
        entry.last_done = id;
        SetAvailable(entry, rec.split, -1);
      } else if (rec.outcome == Outcome::kFailed) {
        // The retry's launch will wait on this failure.
        SetAvailable(entry, rec.split, id);
      }
      break;
    }
    case LifecycleStep::kSampleSatisfiable: {
      if (entry.satisfiable >= 0) break;
      int32_t id =
          AddEvent(EventType::kSampleSatisfiable, t, job, -1, -1, -1);
      AddParent(id,
                entry.last_done >= 0 ? entry.last_done : InputSourceOf(entry),
                EdgeCategory::kBarrier);
      entry.satisfiable = id;
      break;
    }
    case LifecycleStep::kInputFinalized: {
      int32_t id = AddEvent(EventType::kInputFinalized, t, job, -1, -1, -1);
      AddParent(id, entry.satisfiable, EdgeCategory::kProvider);
      AddParent(id, InputSourceOf(entry), EdgeCategory::kProvider);
      entry.finalized = id;
      break;
    }
    case LifecycleStep::kReduceStart: {
      int32_t id = AddEvent(EventType::kReduceStarted, t, job, -1, -1, -1);
      // Map-phase barrier: the reduce waits for the input set to be final
      // and for the last map of the job to drain.
      AddParent(id, entry.finalized, EdgeCategory::kBarrier);
      AddParent(id,
                entry.last_done >= 0 ? entry.last_done : InputSourceOf(entry),
                EdgeCategory::kBarrier);
      entry.reduce = id;
      break;
    }
    case LifecycleStep::kJobComplete: {
      int32_t id = AddEvent(EventType::kJobCompleted, t, job, -1, -1, -1);
      if (entry.reduce >= 0) {
        AddParent(id, entry.reduce, EdgeCategory::kReduce);
      } else if (entry.last_done >= 0) {
        AddParent(id, entry.last_done, EdgeCategory::kExecution);
      } else {
        AddParent(id, InputSourceOf(entry), EdgeCategory::kProvider);
      }
      // No attempt of a completed job launches again.
      std::vector<int32_t>().swap(entry.available);
      break;
    }
    default:
      break;
  }
}

int32_t EventGraph::AddEvent(EventType type, double t, int job, int detail,
                             int node, int slot) {
  events_.push_back(Event{.type = type, .job = job, .t = t, .detail = detail,
                          .node = node, .slot = slot});
  return static_cast<int32_t>(events_.size() - 1);
}

void EventGraph::AddParent(int32_t child, int32_t parent,
                           EdgeCategory category) {
  if (parent < 0) return;
  DMR_CHECK(parent < child) << "event graph parent must precede child";
  Event& e = events_[child];
  DMR_CHECK(e.num_parents < kMaxParents)
      << "event graph event " << child << " already has " << kMaxParents
      << " parents";
  e.parents[e.num_parents] = parent;
  e.categories[e.num_parents] = category;
  ++e.num_parents;
}

EventGraph::JobEvents& EventGraph::JobAt(int job) {
  DMR_CHECK(job >= 0) << "event graph record without a job";
  if (static_cast<size_t>(job) >= jobs_.size()) {
    jobs_.resize(static_cast<size_t>(job) + 1);
  }
  return jobs_[job];
}

EventGraph::SlotEvents& EventGraph::SlotAt(int node, int slot) {
  DMR_CHECK(node >= 0 && slot >= 0) << "event graph attempt without a slot";
  if (static_cast<size_t>(node) >= slots_.size()) {
    slots_.resize(static_cast<size_t>(node) + 1);
  }
  std::vector<SlotEvents>& slots = slots_[node];
  if (static_cast<size_t>(slot) >= slots.size()) {
    slots.resize(static_cast<size_t>(slot) + 1);
  }
  return slots[slot];
}

int32_t EventGraph::AvailableOf(const JobEvents& entry, int split) {
  if (split < 0 || static_cast<size_t>(split) >= entry.available.size()) {
    return -1;
  }
  return entry.available[split];
}

void EventGraph::SetAvailable(JobEvents& entry, int split, int32_t id) {
  DMR_CHECK(split >= 0) << "event graph split record without a split";
  if (static_cast<size_t>(split) >= entry.available.size()) {
    entry.available.resize(static_cast<size_t>(split) + 1, -1);
  }
  entry.available[split] = id;
}

int32_t EventGraph::InputSourceOf(const JobEvents& entry) {
  return entry.last_provider >= 0 ? entry.last_provider : entry.submit;
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
    // The completion registered the job, so its entry exists.
    const int32_t submit = jobs_[path.job].submit;
    if (submit >= 0) {
      path.response_time = path.finish_time - events_[submit].t;
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

      if (e.num_parents == 0) {
        rev.push_back(step);
        path.root_job = e.job;
        path.root_type = e.type;
        break;
      }
      // Binding parent: latest timestamp; ties break towards the
      // later-recorded event (deterministic, matches DES causal order).
      int best = 0;
      for (int p = 1; p < e.num_parents; ++p) {
        const Event& cand = events_[e.parents[p]];
        const Event& cur_best = events_[e.parents[best]];
        if (cand.t > cur_best.t ||
            (cand.t == cur_best.t && e.parents[p] > e.parents[best])) {
          best = p;
        }
      }
      const Event& bind = events_[e.parents[best]];
      step.dur = e.t - bind.t;
      step.category = e.categories[best];
      if (e.num_parents >= 2) {
        double runner_up = -1.0;
        for (int p = 0; p < e.num_parents; ++p) {
          if (p == best) continue;
          runner_up = std::max(runner_up, events_[e.parents[p]].t);
        }
        step.slack = bind.t - runner_up;
      } else {
        step.slack = step.dur;
      }
      rev.push_back(step);
      cur = e.parents[best];
    }

    std::reverse(rev.begin(), rev.end());
    path.steps = std::move(rev);
    if (!path.steps.empty()) {
      path.path_time = path.finish_time - path.steps.front().t;
      if (submit < 0) path.response_time = path.path_time;
      // Skip the root step: it has dur 0 and a meaningless category.
      for (size_t s = 1; s < path.steps.size(); ++s) {
        std::optional<double>& seconds =
            path.breakdown[static_cast<int>(path.steps[s].category)];
        seconds = seconds.value_or(0.0) + path.steps[s].dur;
      }
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string EventGraph::AnalysisToJson(size_t max_path_steps) const {
  std::vector<JobPath> paths = AnalyzeCriticalPaths();
  std::string out = "{\"jobs\": [";
  // Every field is appended in place: a cell's analysis runs to megabytes.
  auto number = [&out](const char* key, double value) {
    out += key;
    AppendJsonNumber(&out, value);
  };
  auto integer = [&out](const char* key, int value) {
    out += key;
    out += std::to_string(value);
  };
  for (size_t i = 0; i < paths.size(); ++i) {
    const JobPath& p = paths[i];
    if (i > 0) out += ",";
    integer("\n      {\"job\": ", p.job);
    number(", \"finish_time\": ", p.finish_time);
    number(", \"response_time\": ", p.response_time);
    number(", \"path_time\": ", p.path_time);
    integer(", \"root_job\": ", p.root_job);
    out += ", \"root_type\": \"";
    out += EventTypeName(p.root_type);
    out += "\", \"breakdown\": {";
    bool first = true;
    for (int c = 0; c < kNumEdgeCategories; ++c) {
      if (!p.breakdown[c].has_value()) continue;
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += EdgeCategoryName(static_cast<EdgeCategory>(c));
      number("\": ", *p.breakdown[c]);
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
      out += "\n        {\"event\": \"";
      out += EventTypeName(st.type);
      number("\", \"t\": ", st.t);
      integer(", \"job\": ", st.job);
      if (st.detail >= 0) integer(", \"split\": ", st.detail);
      if (st.node >= 0) integer(", \"node\": ", st.node);
      if (s > 0) {
        out += ", \"category\": \"";
        out += EdgeCategoryName(st.category);
        number("\", \"dur\": ", st.dur);
        number(", \"slack\": ", st.slack);
      }
      out += "}";
    }
    out += p.steps.size() - begin > 0 ? "\n      ]}" : "]}";
  }
  out += paths.empty() ? "]}" : "\n    ]}";
  return out;
}

}  // namespace dmr::obs
