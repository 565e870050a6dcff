#ifndef DMR_TESTBED_TESTBED_H_
#define DMR_TESTBED_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cluster_monitor.h"
#include "common/result.h"
#include "dfs/file_system.h"
#include "dynamic/growth_policy.h"
#include "mapred/job_client.h"
#include "mapred/job_tracker.h"
#include "obs/book.h"
#include "sim/simulation.h"
#include "tpch/dataset_catalog.h"
#include "tpch/skew_model.h"

namespace dmr::testbed {

/// \brief Which TaskScheduler the testbed installs.
enum class SchedulerKind { kFifo, kFair };

/// \brief A ready-to-use simulated cluster: simulation kernel, cluster,
/// scheduler, JobTracker (started), JobClient, monitor and DFS. This is the
/// shared fixture for the examples and the per-figure benchmark harnesses.
class Testbed {
 public:
  /// \param locality_wait  Fair-scheduler delay-scheduling wait (ignored
  ///        for FIFO).
  /// \param layout_weight  Fair-scheduler weight of replica-layout quality
  ///        against locality when ranking candidate (node, split) pairs
  ///        (0 = pure locality, the paper's behaviour; ignored for FIFO).
  ///
  /// Observability: when the process-global obs::Hub holds a book (bench
  /// drivers install one for --trace/--metrics/--timeline), the testbed
  /// opens a cell in it, attaches the cell to every layer (tracker,
  /// nodes, DFS) and seals it on destruction. Without a book nothing is
  /// attached and the simulation runs obs-free.
  explicit Testbed(const cluster::ClusterConfig& config,
                   SchedulerKind scheduler = SchedulerKind::kFifo,
                   double locality_wait = 5.0, double layout_weight = 0.0);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  mapred::JobTracker& tracker() { return *tracker_; }
  mapred::JobClient& client() { return *client_; }
  cluster::ClusterMonitor& monitor() { return *monitor_; }
  dfs::FileSystem& fs() { return *fs_; }
  const cluster::ClusterConfig& config() const { return config_; }

  /// Submits one job and runs the simulation until it completes (bounded by
  /// `timeout` virtual seconds).
  Result<mapred::JobStats> RunJobToCompletion(
      mapred::JobSubmission submission, double timeout = 48.0 * 3600);

  /// The observability cell (null when no book was installed at
  /// construction).
  obs::Cell* obs() { return obs_; }

  /// Tags this cell's ledger/critical-path records with a driver-provided
  /// annotation ("policy", "z", "repeat", ...). dmr-analyze joins cells
  /// across runs by these keys; they also give the report a stable cell
  /// order under --threads=N. No-op without a cell.
  void Annotate(std::string_view key, std::string_view value);
  void Annotate(std::string_view key, int64_t value);
  void Annotate(std::string_view key, double value);

 private:
  /// Registers the engine-health probes and arms the recurring
  /// kBookkeeping sampling tick. Only called when a timeline is attached.
  void SetupTimeline();
  void TimelineTick();

  sim::Simulation sim_;
  obs::Book* book_ = nullptr;
  obs::Cell* obs_ = nullptr;
  cluster::ClusterConfig config_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<mapred::TaskScheduler> scheduler_;
  std::unique_ptr<mapred::JobTracker> tracker_;
  std::unique_ptr<mapred::JobClient> client_;
  std::unique_ptr<cluster::ClusterMonitor> monitor_;
  std::unique_ptr<dfs::FileSystem> fs_;
  sim::EventHandle timeline_tick_;
};

/// \brief A generated LINEITEM dataset registered in a testbed's DFS:
/// file metadata plus the ground-truth matching counts for its predicate.
struct Dataset {
  dfs::FileInfo file;
  std::vector<uint64_t> matching_per_partition;
  tpch::DatasetProperties properties;
  double zipf_z = 0.0;
};

/// \brief Creates (and registers in `fs`) a LINEITEM dataset at `scale` with
/// skew `z`; `tag` disambiguates multiple copies (the paper's multi-user
/// runs give each user their own copy of the 100x data).
Result<Dataset> MakeLineItemDataset(dfs::FileSystem* fs, int scale, double z,
                                    uint64_t seed,
                                    const std::string& tag = "");

}  // namespace dmr::testbed

#endif  // DMR_TESTBED_TESTBED_H_
