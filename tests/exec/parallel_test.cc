#include "exec/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/growth_policy.h"
#include "sampling/sampling_job.h"
#include "sim/simulation.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"

namespace dmr::exec {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressureWithoutDeadlock) {
  ThreadPool pool(2, /*queue_capacity=*/4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, HardwareThreadsHonorsEnvOverride) {
  ::unsetenv("DMR_THREADS");
  const int hardware = ThreadPool::HardwareThreads();
  EXPECT_GE(hardware, 1);
  ::setenv("DMR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::HardwareThreads(), 3);
  ::setenv("DMR_THREADS", "4096", 1);
  EXPECT_EQ(ThreadPool::HardwareThreads(), ThreadPool::kMaxThreads);
  // Only an all-digit value in 1..4096 (the --threads range) overrides;
  // anything else falls back to the hardware count. No pool is built from
  // these values.
  for (const char* bad : {"not-a-number", "99999999", "4x", "-3", "0",
                          "3000000000", "", " 3", "+3", "4097"}) {
    ::setenv("DMR_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::HardwareThreads(), hardware) << "'" << bad << "'";
  }
  ::unsetenv("DMR_THREADS");
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  Status status = ParallelFor(&pool, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, ZeroCellsIsOk) {
  ThreadPool pool(2);
  Status status =
      ParallelFor(&pool, 0, [](size_t) { return Status::OK(); });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelForTest, ReportsLowestIndexError) {
  ThreadPool pool(4);
  Status status = ParallelFor(&pool, 100, [&](size_t i) -> Status {
    if (i % 7 == 3) {
      return Status::Internal("cell " + std::to_string(i) + " failed");
    }
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  // Lowest failing index is 3, regardless of completion order.
  EXPECT_EQ(status.message(), "cell 3 failed");
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(4);
  auto result = ParallelMap<int>(&pool, 500, [](size_t i) {
    return Result<int>(static_cast<int>(i * i));
  });
  ASSERT_TRUE(result.ok());
  const std::vector<int>& values = *result;
  ASSERT_EQ(values.size(), 500u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMapTest, PropagatesFirstErrorByIndex) {
  ThreadPool pool(4);
  auto result = ParallelMap<int>(&pool, 50, [](size_t i) -> Result<int> {
    if (i >= 10) return Status::InvalidArgument("bad " + std::to_string(i));
    return static_cast<int>(i);
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "bad 10");
}

// --- Determinism regression: the harness contract ---
// Each cell builds its own Simulation, so a grid must produce byte-identical
// results no matter how many worker threads execute it.

std::string RunSamplingCell(const std::string& policy_name, double z) {
  testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
  auto dataset = testbed::MakeLineItemDataset(&bed.fs(), /*scale=*/5, z,
                                              /*seed=*/424242);
  if (!dataset.ok()) return "dataset error";
  auto policy = dynamic::PolicyTable::BuiltIn().Find(policy_name);
  if (!policy.ok()) return "policy error";
  sampling::SamplingJobOptions options;
  options.job_name = "determinism-" + policy_name;
  options.sample_size = tpch::kPaperSampleSize;
  options.seed = 31337;
  auto submission = sampling::MakeSamplingJob(
      dataset->file, dataset->matching_per_partition, *policy, options);
  if (!submission.ok()) return "job error";
  auto stats = bed.RunJobToCompletion(std::move(*submission));
  if (!stats.ok()) return "run error";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.17g|%llu|%llu",
                stats->response_time(),
                static_cast<unsigned long long>(stats->splits_processed),
                static_cast<unsigned long long>(stats->input_increments));
  return buf;
}

TEST(ParallelDeterminismTest, GridIsByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> policies = {"HA", "C"};
  const std::vector<double> zs = {0.0, 2.0};
  auto run_grid = [&](int threads) {
    ThreadPool pool(threads);
    auto cells = ParallelMap<std::string>(
        &pool, policies.size() * zs.size(), [&](size_t i) {
          return Result<std::string>(
              RunSamplingCell(policies[i / zs.size()], zs[i % zs.size()]));
        });
    std::string flat;
    EXPECT_TRUE(cells.ok());
    for (const auto& cell : *cells) flat += cell + "\n";
    return flat;
  };
  std::string serial = run_grid(1);
  std::string parallel4 = run_grid(4);
  std::string parallel7 = run_grid(7);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel7);
  // And the cells are genuinely distinct experiments.
  EXPECT_NE(serial.substr(0, serial.find('\n')),
            serial.substr(serial.rfind('|')));
}

}  // namespace
}  // namespace dmr::exec
