/// \file
/// Property sweep over (policy x skew) on the cluster simulator: the
/// invariants every configuration must satisfy, regardless of timing.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"

namespace dmr {
namespace {

// The policy name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, and gtest_discover_tests puts the
// printed parameter into the ctest name, so each build would rename the
// cases.
class PolicySkewSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(PolicySkewSweep, InvariantsHold) {
  const auto& [policy_name, z] = GetParam();
  constexpr int kScale = 10;  // 80 partitions
  constexpr uint64_t kK = 10000;

  testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
  auto dataset = testbed::MakeLineItemDataset(&bed.fs(), kScale, z, 777);
  ASSERT_TRUE(dataset.ok());
  uint64_t total_matching = 0;
  for (uint64_t m : dataset->matching_per_partition) total_matching += m;

  auto policy = *dynamic::PolicyTable::BuiltIn().Find(policy_name);
  sampling::SamplingJobOptions options;
  options.job_name = "sweep-" + policy_name;
  options.sample_size = kK;
  options.seed = 31337;
  auto submission = sampling::MakeSamplingJob(
      dataset->file, dataset->matching_per_partition, policy, options);
  ASSERT_TRUE(submission.ok());
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // 1. The sample is exactly min(k, total matching records).
  EXPECT_EQ(stats->result_records, std::min(kK, total_matching));

  // 2. Work is bounded by the input.
  EXPECT_LE(stats->splits_processed, stats->splits_total);
  EXPECT_EQ(stats->splits_total, 80);
  EXPECT_LE(stats->records_processed,
            80ULL * tpch::kRecordsPerPartition);

  // 3. The unbounded policy processes everything; bounded ones never add
  //    past the point where completed output covers k... Hadoop excepted.
  if (policy_name == "Hadoop") {
    EXPECT_EQ(stats->splits_processed, 80);
  }

  // 4. Attempt accounting is consistent.
  EXPECT_EQ(stats->local_maps + stats->remote_maps,
            stats->splits_processed + stats->speculative_maps +
                stats->failed_maps);

  // 5. The cluster is quiescent afterwards.
  EXPECT_EQ(bed.cluster().used_map_slots(), 0);

  // 6. Dynamic jobs were actually driven by the provider.
  if (policy_name != "Hadoop") {
    EXPECT_GT(stats->provider_evaluations, 0);
  }

  // 7. History bookkeeping matches stats.
  int completions = 0;
  for (const auto& ev : bed.tracker().history().ForJob(stats->job_id)) {
    if (ev.kind == mapred::JobEventKind::kMapCompleted) ++completions;
  }
  EXPECT_EQ(completions, stats->splits_processed);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllSkews, PolicySkewSweep,
    ::testing::Combine(::testing::Values(std::string("Hadoop"), "HA", "MA",
                                         "LA", "C"),
                       ::testing::Values(0.0, 1.0, 2.0)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      name += "_z";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      return name;
    });

/// Determinism: the whole simulated run is a pure function of its seeds.
class DeterminismSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismSweep, RunsAreBitwiseRepeatable) {
  auto run = [&] {
    testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
    auto dataset = *testbed::MakeLineItemDataset(&bed.fs(), 5, 1.0, 99);
    auto policy = *dynamic::PolicyTable::BuiltIn().Find(GetParam());
    sampling::SamplingJobOptions options;
    options.sample_size = 10000;
    options.seed = 12;
    auto submission = sampling::MakeSamplingJob(
        dataset.file, dataset.matching_per_partition, policy, options);
    return *bed.RunJobToCompletion(*std::move(submission));
  };
  mapred::JobStats a = run();
  mapred::JobStats b = run();
  EXPECT_DOUBLE_EQ(a.response_time(), b.response_time());
  EXPECT_EQ(a.splits_processed, b.splits_processed);
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.input_increments, b.input_increments);
  EXPECT_EQ(a.local_maps, b.local_maps);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DeterminismSweep,
                         ::testing::Values("Hadoop", "HA", "MA", "LA", "C"));

}  // namespace
}  // namespace dmr
