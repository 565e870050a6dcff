#ifndef DMR_MAPRED_JOB_TRACKER_H_
#define DMR_MAPRED_JOB_TRACKER_H_

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/result.h"
#include "mapred/job.h"
#include "mapred/job_history.h"
#include "mapred/task_scheduler.h"
#include "mapred/types.h"
#include "obs/book.h"
#include "sim/simulation.h"

namespace dmr::mapred {

/// \brief The server-side daemon that manages job lifecycles — the analogue
/// of Hadoop's JobTracker.
///
/// Per the paper's design (Section IV), the JobTracker is agnostic of Input
/// Providers and policies: it only exposes AddSplits / FinalizeInput, which
/// the client-side JobClient drives. TaskTracker heartbeats are simulated
/// per node at the configured interval; at each heartbeat the pluggable
/// TaskScheduler fills free map slots and the tracker launches queued
/// reduce tasks.
class JobTracker {
 public:
  using CompletionCallback = std::function<void(const JobStats&)>;

  /// \param scheduler  not owned; must outlive the tracker.
  /// \param obs        nullable observability cell (not owned). When null,
  ///                   lifecycle steps reach only the history
  ///                   (zero-overhead-when-off).
  JobTracker(cluster::Cluster* cluster, TaskScheduler* scheduler,
             obs::Cell* obs = nullptr);

  /// Begins the per-node heartbeat cycle (staggered across nodes).
  void Start();

  /// Submits a job whose whole input is known up front (ordinary Hadoop
  /// job): all splits are added and input is finalized immediately.
  Result<int> SubmitStaticJob(JobConf conf,
                              std::shared_ptr<const SplitTable> input,
                              MapOutputModel output_model,
                              CompletionCallback on_complete);

  /// Submits a dynamic job with no input yet; the JobClient feeds splits
  /// of `input` (the job's complete input) via AddSplits and eventually
  /// calls FinalizeInput.
  Result<int> SubmitDynamicJob(JobConf conf,
                               std::shared_ptr<const SplitTable> input,
                               MapOutputModel output_model,
                               CompletionCallback on_complete);

  /// Appends input partitions, by id in the job's split table, to a job
  /// ("input available").
  Status AddSplits(int job_id, std::span<const SplitId> splits);

  /// Declares a job's input complete ("end of input"); once in-flight maps
  /// finish, the reduce phase begins.
  Status FinalizeInput(int job_id);

  Result<JobProgress> GetJobProgress(int job_id) const;

  /// True once the job has fully completed.
  Result<bool> IsJobComplete(int job_id) const;

  /// Current cluster-load summary (what the JobClient forwards to Input
  /// Providers).
  ClusterStatus GetClusterStatus() const;

  cluster::Cluster* cluster() { return cluster_; }
  sim::Simulation* simulation() { return sim_; }

  int64_t total_local_maps() const { return total_local_maps_; }
  int64_t total_remote_maps() const { return total_remote_maps_; }

  /// Locality as % of launched map tasks reading from their home node.
  double LocalityPercent() const;

  /// Speculative (backup) map attempts launched cluster-wide.
  int64_t total_speculative_maps() const { return total_speculative_maps_; }

  /// Map attempts whose stats hint pruned them to a stats-read
  /// (scan_fraction == 0; adaptive-layout cost model, DESIGN.md §16).
  int64_t total_pruned_splits() const { return total_pruned_splits_; }

  /// Append-only lifecycle event log (the JobHistory analogue).
  const JobHistory& history() const { return history_; }

  /// Reports one lifecycle step at the current virtual time: appends it to
  /// the history and, with a cell attached, hands it to the cell. The
  /// JobClient's provider decisions and the scheduler's delay holds too.
  void Report(LifecycleRecord rec);

 private:
  /// One running map attempt (original or speculative backup). Attempts are
  /// killable: their outstanding resource requests are cancelled and the
  /// slot freed when a sibling attempt wins. Everything the attempt needs
  /// after launch lives here, so its startup event captures only the
  /// attempt's address and stays inline in the event queue.
  struct MapAttempt : std::enable_shared_from_this<MapAttempt> {
    Job* job = nullptr;
    SplitId split = 0;
    int node_id = 0;
    /// Map slot index on node_id (trace lane), from Node::AcquireMapSlot.
    int slot = 0;
    bool local = false;
    bool backup = false;
    bool finished = false;
    /// Fault draw: the attempt does its work, then reports failure.
    bool will_fail = false;
    /// Resource parts (disk, network when remote, CPU) still to finish.
    int parts_left = 0;
    /// Replica the attempt reads, and its demands on disk (and network)
    /// and CPU.
    SplitLocation source;
    double read_bytes = 0.0;
    double cpu_demand = 0.0;
    double launch_time = 0.0;
    sim::EventHandle startup_event;
    std::array<std::pair<sim::PsResource*, sim::PsResource::RequestId>, 3>
        requests{};
    int num_requests = 0;
  };
  using AttemptPtr = std::shared_ptr<MapAttempt>;
  /// Key of a running split: (job id, split id).
  using SplitKey = std::pair<int, SplitId>;

  void Heartbeat(int node_id);
  void MaybeLaunchBackups(int node_id);
  void LaunchMap(Job* job, SplitId split, int node_id, bool local,
                 bool backup);
  /// Startup done: submits the attempt's demands to its resources.
  void StartAttempt(MapAttempt* attempt);
  void LaunchReduce(Job* job, int node_id);
  void OnAttemptDone(const AttemptPtr& attempt, bool failed);
  void KillAttempt(const AttemptPtr& attempt);
  /// Marks `attempt` finished, reports its end and frees its map slot. The
  /// report comes first, so the ledger learns the outcome of the busy
  /// interval the release closes.
  void EndAttempt(MapAttempt& attempt, Outcome outcome);
  void OnReduceComplete(Job* job, int node_id);
  void CheckReduceReady(Job* job);
  /// Reports the free-slot demand state (only to a cell: the history has
  /// no use for it). Call after any event that can change demand.
  void ReportDemand();
  void PruneMappingJobs();
  Result<Job*> FindJob(int job_id) const;
  int NextJobId() { return next_job_id_++; }

  cluster::Cluster* cluster_;
  sim::Simulation* sim_;
  TaskScheduler* scheduler_;
  obs::Cell* obs_;
  bool started_ = false;
  Rng fault_rng_;

  std::map<int, std::unique_ptr<Job>> jobs_;
  std::vector<Job*> mapping_jobs_;           // submission order
  std::deque<Job*> reduce_ready_;            // FIFO reduce launch queue
  std::map<int, CompletionCallback> callbacks_;
  std::map<SplitKey, std::vector<AttemptPtr>> running_splits_;
  int next_job_id_ = 1;
  int active_jobs_ = 0;
  int64_t total_local_maps_ = 0;
  int64_t total_remote_maps_ = 0;
  int64_t total_speculative_maps_ = 0;
  int64_t total_pruned_splits_ = 0;
  JobHistory history_;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_JOB_TRACKER_H_
