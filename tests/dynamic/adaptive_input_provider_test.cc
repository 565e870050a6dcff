#include "dynamic/adaptive_input_provider.h"

#include <gtest/gtest.h>

#include <memory>

#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"

namespace dmr::dynamic {
namespace {

using mapred::ClusterStatus;
using mapred::InputResponseKind;
using mapred::InputSplit;
using mapred::JobProgress;

std::shared_ptr<const mapred::SplitTable> MakeSplits(int n) {
  auto table = std::make_shared<mapred::SplitTable>();
  for (int i = 0; i < n; ++i) {
    InputSplit s;
    s.index = i;
    s.num_records = 750000;
    table->Add(s);
  }
  return table;
}

mapred::JobConf Conf(uint64_t k = 10000) {
  mapred::JobConf conf;
  conf.set_sample_size(k);
  return conf;
}

ClusterStatus Load(int total, int occupied) {
  ClusterStatus s;
  s.total_map_slots = total;
  s.occupied_map_slots = occupied;
  return s;
}

TEST(AdaptiveProviderTest, RequiresSampleSize) {
  AdaptiveInputProvider provider(1);
  EXPECT_TRUE(provider.Initialize(MakeSplits(4), mapred::JobConf())
                  .IsInvalidArgument());
}

TEST(AdaptiveProviderTest, GrabScalesWithLoad) {
  AdaptiveInputProvider provider(1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(200), Conf()).ok());
  // Idle 40-slot cluster: AS^2/TS = 40 (HA-like).
  auto idle = provider.GetInitialInput(Load(40, 0));
  EXPECT_EQ(idle.splits.size(), 40u);

  AdaptiveInputProvider half(2);
  ASSERT_TRUE(half.Initialize(MakeSplits(200), Conf()).ok());
  // Half busy: 20^2/40 = 10 (between MA and LA).
  EXPECT_EQ(half.GetInitialInput(Load(40, 20)).splits.size(), 10u);

  AdaptiveInputProvider busy(3);
  ASSERT_TRUE(busy.Initialize(MakeSplits(200), Conf()).ok());
  // 90 % busy: 4^2/40 = 0.4 -> floor of 1 (C-like trickle).
  EXPECT_EQ(busy.GetInitialInput(Load(40, 36)).splits.size(), 1u);
}

TEST(AdaptiveProviderTest, EndsOnTargetOrExhaustion) {
  AdaptiveInputProvider provider(1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(40), Conf(100)).ok());
  (void)provider.GetInitialInput(Load(40, 0));
  JobProgress done;
  done.output_records = 100;
  EXPECT_EQ(provider.Evaluate(done, Load(40, 0)).kind,
            InputResponseKind::kEndOfInput);

  AdaptiveInputProvider exhausted(2);
  ASSERT_TRUE(exhausted.Initialize(MakeSplits(10), Conf()).ok());
  (void)exhausted.GetInitialInput(Load(40, 0));  // takes all 10
  JobProgress partial;
  partial.output_records = 3;
  EXPECT_EQ(exhausted.Evaluate(partial, Load(40, 0)).kind,
            InputResponseKind::kEndOfInput);
}

TEST(AdaptiveProviderTest, SkewSignalRisesWithVariance) {
  AdaptiveInputProvider provider(1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(200), Conf()).ok());
  (void)provider.GetInitialInput(Load(40, 36));  // takes 1

  // Feed evaluations with wildly varying per-map yields.
  JobProgress p;
  p.maps_completed = 1;
  p.records_processed = 750000;
  p.output_records = 1;  // 1 match in the first map
  (void)provider.Evaluate(p, Load(40, 36));
  double cv_early = provider.observed_skew_cv();

  p.maps_completed = 2;
  p.records_processed = 2 * 750000;
  p.output_records = 5001;  // 5000 matches in the second: huge variance
  (void)provider.Evaluate(p, Load(40, 36));
  EXPECT_GT(provider.observed_skew_cv(), cv_early);
  EXPECT_GT(provider.observed_skew_cv(), 0.5);
}

TEST(AdaptiveProviderTest, UniformYieldsKeepCvLow) {
  AdaptiveInputProvider provider(1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(200), Conf()).ok());
  (void)provider.GetInitialInput(Load(40, 36));
  JobProgress p;
  for (int i = 1; i <= 5; ++i) {
    p.maps_completed = i;
    p.records_processed = uint64_t(i) * 750000;
    p.output_records = uint64_t(i) * 375;  // identical yields
    (void)provider.Evaluate(p, Load(40, 36));
  }
  EXPECT_LT(provider.observed_skew_cv(), 0.05);
}

TEST(AdaptiveProviderTest, EndToEndUnderLoadMatchesSampleSize) {
  // Run a full simulated job with the adaptive provider plugged in.
  testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
  auto dataset = testbed::MakeLineItemDataset(&bed.fs(), 10, 2.0, 8);
  ASSERT_TRUE(dataset.ok());
  auto policy = *PolicyTable::BuiltIn().Find("LA");  // conf params only
  sampling::SamplingJobOptions options;
  options.job_name = "adaptive";
  options.sample_size = 10000;
  options.seed = 21;
  auto submission = sampling::MakeSamplingJob(
      dataset->file, dataset->matching_per_partition, policy, options);
  ASSERT_TRUE(submission.ok());
  submission->input_provider = std::make_shared<AdaptiveInputProvider>(21);
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result_records, 10000u);
  EXPECT_LT(stats->splits_processed, 80);
}

}  // namespace
}  // namespace dmr::dynamic
