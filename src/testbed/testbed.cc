#include "testbed/testbed.h"

#include <cstdio>
#include <optional>

#include "common/logging.h"
#include "scheduler/fair_scheduler.h"
#include "scheduler/fifo_scheduler.h"

namespace dmr::testbed {

Testbed::Testbed(const cluster::ClusterConfig& config, SchedulerKind kind,
                 double locality_wait, double layout_weight)
    : config_(config) {
  book_ = obs::Hub::book();
  if (book_ != nullptr) {
    obs_ = book_->NewCell(config_.num_nodes, config_.map_slots_per_node);
  }
  obs::Cell* obs = obs_;

  cluster_ = std::make_unique<cluster::Cluster>(&sim_, config_);
  if (obs != nullptr) {
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      cluster_->node(n)->set_obs(obs);
    }
  }
  switch (kind) {
    case SchedulerKind::kFifo:
      scheduler_ = std::make_unique<scheduler::FifoScheduler>();
      break;
    case SchedulerKind::kFair: {
      scheduler::FairSchedulerOptions options;
      options.total_map_slots = config_.total_map_slots();
      options.locality_wait = locality_wait;
      options.layout_weight = layout_weight;
      scheduler_ = std::make_unique<scheduler::FairScheduler>(options);
      break;
    }
  }
  tracker_ = std::make_unique<mapred::JobTracker>(cluster_.get(),
                                                  scheduler_.get(), obs);
  tracker_->Start();
  client_ = std::make_unique<mapred::JobClient>(tracker_.get());
  monitor_ = std::make_unique<cluster::ClusterMonitor>(cluster_.get());
  fs_ = std::make_unique<dfs::FileSystem>(config_.num_nodes,
                                          config_.disks_per_node);
  fs_->set_obs(obs);
  if (obs != nullptr && obs->timeline() != nullptr) SetupTimeline();
}

void Testbed::SetupTimeline() {
  obs::Timeline* tl = obs_->timeline();

  // Engine-health probes (the cell adds the job-lifecycle ones). Every
  // callback reads state that is a pure function of virtual time (queue
  // sizes, arena bytes, slot counts), which is what keeps timeline output
  // byte-identical across --threads, --queue and --shuffle-ties
  // (DESIGN.md §15).
  tl->AddProbe("sim.live_size", "events", obs::Timeline::SeriesKind::kGauge,
               [this] { return static_cast<double>(sim_.live_size()); });
  tl->AddProbe("sim.events_fired", "events",
               obs::Timeline::SeriesKind::kCounter,
               [this] { return static_cast<double>(sim_.events_fired()); });
  tl->AddProbe("sim.arena_bytes", "bytes", obs::Timeline::SeriesKind::kGauge,
               [this] {
                 return static_cast<double>(sim_.arena()->bytes_reserved());
               });
  tl->AddProbe("cluster.occupied_map_slots", "slots",
               obs::Timeline::SeriesKind::kGauge, [this] {
                 return static_cast<double>(cluster_->used_map_slots());
               });

  // A permissive default SLO over the windowed job-response p99: a
  // sampling job that takes an hour has gone badly wrong at any paper
  // scale.
  obs::SloRule rule;
  rule.name = "job_response_p99_1h";
  rule.series = "mapred.job_response";
  rule.window = tl->options().windows.empty() ? 60.0
                                              : tl->options().windows.back();
  rule.quantile = 99.0;
  rule.max_value = 3600.0;
  obs_->slo()->AddRule(rule);

  // kTelemetry, not kBookkeeping: probes read kernel stats (events fired,
  // live queue size) that same-instant bookkeeping handlers perturb; the
  // tick must be totally ordered after them or the sampled values would
  // depend on the tie order within the instant.
  timeline_tick_ = sim_.Schedule(tl->options().interval,
                                 sim::EventClass::kTelemetry,
                                 [this] { TimelineTick(); });
}

void Testbed::TimelineTick() {
  obs::Timeline* tl = obs_->timeline();
  tl->Sample(sim_.Now());
  obs_->slo()->Evaluate(sim_.Now());
  timeline_tick_ = sim_.Schedule(tl->options().interval,
                                 sim::EventClass::kTelemetry,
                                 [this] { TimelineTick(); });
}

Testbed::~Testbed() {
  monitor_->Stop();
  timeline_tick_.Cancel();
  if (obs_ != nullptr) {
    // Export the kernel's tie-race totals: under --shuffle-ties these must
    // not move across seeds (tie groups are a property of the schedule,
    // not of the order chosen within a group).
    const sim::TieStats ties = sim_.tie_stats();
    obs_->Count(obs::Counter::kSimTieGroups,
                static_cast<int64_t>(ties.groups));
    obs_->Count(obs::Counter::kSimTieEvents,
                static_cast<int64_t>(ties.tied_events));
    book_->Seal(obs_, sim_.Now());
  }
}

void Testbed::Annotate(std::string_view key, std::string_view value) {
  if (obs_ != nullptr) obs_->Annotate(key, value);
}

void Testbed::Annotate(std::string_view key, int64_t value) {
  Annotate(key, std::to_string(value));
}

void Testbed::Annotate(std::string_view key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", value);
  Annotate(key, buf);
}

Result<mapred::JobStats> Testbed::RunJobToCompletion(
    mapred::JobSubmission submission, double timeout) {
  std::optional<mapred::JobStats> stats;
  DMR_ASSIGN_OR_RETURN(
      int job_id,
      client_->Submit(std::move(submission),
                      [&stats](const mapred::JobStats& s) { stats = s; }));
  (void)job_id;
  double deadline = sim_.Now() + timeout;
  while (!stats.has_value() && sim_.Now() < deadline) {
    sim_.RunUntil(std::min(deadline, sim_.Now() + 600.0));
    // The tracker's per-node heartbeat chains must keep the simulation
    // alive until the job calls back; a drained queue here means the job
    // can never complete. live_size() is the right gauge — queue_size()
    // also counts lazily-cancelled tombstones awaiting a batched purge.
    DMR_CHECK_GT(sim_.live_size(), 0u)
        << "event queue drained with job still incomplete";
  }
  if (!stats.has_value()) {
    return Status::Internal("job did not complete within " +
                            std::to_string(timeout) + " virtual seconds");
  }
  return *stats;
}

Result<Dataset> MakeLineItemDataset(dfs::FileSystem* fs, int scale, double z,
                                    uint64_t seed, const std::string& tag) {
  Dataset dataset;
  DMR_ASSIGN_OR_RETURN(dataset.properties, tpch::PropertiesForScale(scale));
  dataset.zipf_z = z;

  std::string name = dataset.properties.file_name();
  if (!tag.empty()) name += "_" + tag;
  DMR_ASSIGN_OR_RETURN(
      dataset.file,
      fs->CreateFile(name, dataset.properties.num_partitions,
                     tpch::kRecordsPerPartition, tpch::kLineItemRecordBytes));

  tpch::SkewSpec spec;
  spec.num_partitions = dataset.properties.num_partitions;
  spec.records_per_partition = tpch::kRecordsPerPartition;
  spec.selectivity = tpch::kPaperSelectivity;
  spec.zipf_z = z;
  spec.seed = seed;
  DMR_ASSIGN_OR_RETURN(dataset.matching_per_partition,
                       tpch::AssignMatchingRecords(spec));
  return dataset;
}

}  // namespace dmr::testbed
