#include "dynamic/sampling_input_provider.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

namespace dmr::dynamic {
namespace {

using mapred::ClusterStatus;
using mapred::InputResponse;
using mapred::InputResponseKind;
using mapred::InputSplit;
using mapred::JobProgress;
using mapred::SplitId;
using mapred::SplitTable;

std::shared_ptr<const SplitTable> MakeSplits(int n,
                                             uint64_t records = 750000) {
  auto table = std::make_shared<SplitTable>();
  for (int i = 0; i < n; ++i) {
    InputSplit s;
    s.index = i;
    s.num_records = records;
    s.node_id = i % 10;
    table->Add(s);
  }
  return table;
}

mapred::JobConf SamplingConf(uint64_t k = 10000) {
  mapred::JobConf conf;
  conf.set_sample_size(k);
  return conf;
}

ClusterStatus Idle40() {
  ClusterStatus s;
  s.total_map_slots = 40;
  s.occupied_map_slots = 0;
  return s;
}

GrowthPolicy Policy(const char* name) {
  return *PolicyTable::BuiltIn().Find(name);
}

TEST(SamplingProviderTest, RequiresSampleSize) {
  SamplingInputProvider provider(Policy("LA"), 1);
  EXPECT_TRUE(provider.Initialize(MakeSplits(4), mapred::JobConf())
                  .IsInvalidArgument());
}

TEST(SamplingProviderTest, DoubleInitializeFails) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(4), SamplingConf()).ok());
  EXPECT_TRUE(provider.Initialize(MakeSplits(4), SamplingConf())
                  .IsFailedPrecondition());
}

TEST(SamplingProviderTest, InitialInputRespectsGrabLimit) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  InputResponse r = provider.GetInitialInput(Idle40());
  EXPECT_EQ(r.kind, InputResponseKind::kInputAvailable);
  // LA on an idle 40-slot cluster: 0.2 * 40 = 8.
  EXPECT_EQ(r.splits.size(), 8u);
  EXPECT_EQ(provider.remaining_splits(), 92);
}

TEST(SamplingProviderTest, HadoopPolicyTakesEverythingUpFront) {
  SamplingInputProvider provider(Policy("Hadoop"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  InputResponse r = provider.GetInitialInput(Idle40());
  EXPECT_EQ(r.kind, InputResponseKind::kInputAvailable);
  EXPECT_EQ(r.splits.size(), 100u);
  EXPECT_EQ(provider.remaining_splits(), 0);
}

TEST(SamplingProviderTest, EmptyInputEndsImmediately) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(0), SamplingConf()).ok());
  EXPECT_EQ(provider.GetInitialInput(Idle40()).kind,
            InputResponseKind::kEndOfInput);
}

TEST(SamplingProviderTest, InitialDrawIsWithoutReplacement) {
  SamplingInputProvider provider(Policy("HA"), 7);
  ASSERT_TRUE(provider.Initialize(MakeSplits(40), SamplingConf()).ok());
  InputResponse r = provider.GetInitialInput(Idle40());
  std::set<SplitId> ids(r.splits.begin(), r.splits.end());
  EXPECT_EQ(ids.size(), r.splits.size());
  for (SplitId id : r.splits) EXPECT_LT(id, 40u);
}

TEST(SamplingProviderTest, RequiresAnInputTable) {
  SamplingInputProvider provider(Policy("LA"), 1);
  EXPECT_TRUE(
      provider.Initialize(nullptr, SamplingConf()).IsInvalidArgument());
}

TEST(SamplingProviderTest, EndsWhenOutputReachesSampleSize) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(40), SamplingConf(100)).ok());
  (void)provider.GetInitialInput(Idle40());
  JobProgress progress;
  progress.output_records = 100;
  EXPECT_EQ(provider.Evaluate(progress, Idle40()).kind,
            InputResponseKind::kEndOfInput);
}

TEST(SamplingProviderTest, EndsWhenInputExhausted) {
  SamplingInputProvider provider(Policy("Hadoop"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(10), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());  // takes all 10
  JobProgress progress;
  progress.output_records = 5;  // short of k, but nothing left to add
  EXPECT_EQ(provider.Evaluate(progress, Idle40()).kind,
            InputResponseKind::kEndOfInput);
}

TEST(SamplingProviderTest, WaitsWhilePendingCoversTheGap) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());
  JobProgress progress;
  progress.maps_completed = 4;
  progress.maps_running = 4;
  progress.records_processed = 4 * 750000;
  progress.output_records = 6000;           // sigma = 0.2 %
  progress.pending_records = 4 * 750000;    // expected 6000 more >= k
  EXPECT_EQ(provider.Evaluate(progress, Idle40()).kind,
            InputResponseKind::kNoInputAvailable);
}

TEST(SamplingProviderTest, AddsTheEstimatedShortfall) {
  SamplingInputProvider provider(Policy("HA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());  // HA takes 40
  JobProgress progress;
  progress.maps_completed = 40;
  progress.records_processed = 40ULL * 750000;
  progress.output_records = 4000;  // sigma = 4000 / 30 M
  progress.pending_records = 0;
  InputResponse r = provider.Evaluate(progress, Idle40());
  ASSERT_EQ(r.kind, InputResponseKind::kInputAvailable);
  // Need (10000 - 4000) / sigma = 45 M records = 60 splits, capped by the
  // HA grab limit max(0.5*40, 40) = 40.
  EXPECT_EQ(r.splits.size(), 40u);
  EXPECT_DOUBLE_EQ(provider.estimated_selectivity(), 4000.0 / 30000000.0);
}

TEST(SamplingProviderTest, SplitsNeededUsesObservedRecordsPerSplit) {
  SamplingInputProvider provider(Policy("HA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());
  JobProgress progress;
  progress.maps_completed = 10;
  progress.records_processed = 10ULL * 750000;
  progress.output_records = 7500;  // sigma = 0.1 %: 1 matching per 1000
  progress.pending_records = 0;
  InputResponse r = provider.Evaluate(progress, Idle40());
  ASSERT_EQ(r.kind, InputResponseKind::kInputAvailable);
  // Shortfall 2500 -> 2.5 M records -> ceil(2.5 M / 750 K) = 4 splits.
  EXPECT_EQ(r.splits.size(), 4u);
}

TEST(SamplingProviderTest, BlindWhenNothingMatchedYet) {
  SamplingInputProvider provider(Policy("LA"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());
  JobProgress starved;
  starved.maps_completed = 8;
  starved.records_processed = 8ULL * 750000;
  starved.output_records = 0;  // nothing matched
  InputResponse r = provider.Evaluate(starved, Idle40());
  EXPECT_EQ(r.kind, InputResponseKind::kInputAvailable);
  EXPECT_EQ(r.splits.size(), 8u);  // LA grab limit on idle cluster

  JobProgress in_flight = starved;
  in_flight.maps_running = 2;
  EXPECT_EQ(provider.Evaluate(in_flight, Idle40()).kind,
            InputResponseKind::kNoInputAvailable);
}

TEST(SamplingProviderTest, SaturatedClusterConservativeWaits) {
  SamplingInputProvider provider(Policy("C"), 1);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());
  ClusterStatus saturated;
  saturated.total_map_slots = 40;
  saturated.occupied_map_slots = 40;
  JobProgress progress;
  progress.maps_completed = 1;
  progress.records_processed = 750000;
  progress.output_records = 10;  // far short, sigma > 0
  InputResponse r = provider.Evaluate(progress, saturated);
  // C's grab limit is 0.1 * AS = 0: nothing may be added right now.
  EXPECT_EQ(r.kind, InputResponseKind::kNoInputAvailable);
}

TEST(SamplingProviderTest, DrawsAreSeedDeterministic) {
  for (int trial = 0; trial < 2; ++trial) {
    SamplingInputProvider a(Policy("LA"), 99);
    SamplingInputProvider b(Policy("LA"), 99);
    ASSERT_TRUE(a.Initialize(MakeSplits(50), SamplingConf()).ok());
    ASSERT_TRUE(b.Initialize(MakeSplits(50), SamplingConf()).ok());
    auto ra = a.GetInitialInput(Idle40());
    auto rb = b.GetInitialInput(Idle40());
    ASSERT_EQ(ra.splits.size(), rb.splits.size());
    for (size_t i = 0; i < ra.splits.size(); ++i) {
      EXPECT_EQ(ra.splits[i], rb.splits[i]);
    }
  }
}

TEST(SamplingProviderTest, BlindModeIgnoresEstimates) {
  SamplingInputProvider::Options options;
  options.use_selectivity_estimation = false;
  SamplingInputProvider provider(Policy("LA"), 1, options);
  ASSERT_TRUE(provider.Initialize(MakeSplits(100), SamplingConf()).ok());
  (void)provider.GetInitialInput(Idle40());
  JobProgress progress;
  progress.maps_completed = 8;
  progress.records_processed = 8ULL * 750000;
  progress.output_records = 9999;       // sigma would say "1 more split"
  progress.pending_records = 0;
  InputResponse r = provider.Evaluate(progress, Idle40());
  ASSERT_EQ(r.kind, InputResponseKind::kInputAvailable);
  EXPECT_EQ(r.splits.size(), 8u);  // full grab limit, not the shortfall
}

}  // namespace
}  // namespace dmr::dynamic
