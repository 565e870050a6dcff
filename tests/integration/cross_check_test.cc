/// \file
/// Cross-checks the two execution paths over statistically identical data:
/// the record-level LocalRuntime (real rows, real predicate evaluation) and
/// the cluster simulator (analytic output model). Both implement the same
/// Input Provider loop, so their *work* metrics must agree even though one
/// simulates time and the other runs threads.

#include <gtest/gtest.h>

#include <memory>

#include "dynamic/sampling_input_provider.h"
#include "exec/local_runtime.h"
#include "hive/compiler.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/generator.h"

namespace dmr {
namespace {

/// Shared experiment shape: 24 partitions x 25k records, sigma = 0.2 %,
/// k = 400. Uniform spread so sampling noise can't dominate.
constexpr int kPartitions = 24;
constexpr uint64_t kRecords = 25000;
constexpr double kSelectivity = 0.002;
constexpr uint64_t kSampleK = 400;

TEST(CrossCheckTest, LocalAndSimulatedWorkAgree) {
  // --- local path: real data -------------------------------------------
  tpch::SkewSpec spec;
  spec.num_partitions = kPartitions;
  spec.records_per_partition = kRecords;
  spec.selectivity = kSelectivity;
  spec.zipf_z = 0.0;
  spec.seed = 62;
  auto data = *tpch::MaterializeDataset(spec);

  hive::HiveCompiler compiler(&tpch::LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  ASSERT_TRUE(compiler.Process("SET dynamic.job.policy = LA").ok());
  auto compiled = compiler.Process(
      "SELECT ORDERKEY FROM lineitem WHERE QUANTITY > 50 LIMIT 400");
  ASSERT_TRUE(compiled.ok());

  exec::LocalRuntime runtime({.num_threads = 8, .seed = 4242});
  auto local = runtime.Execute(*compiled->query, data,
                               *dynamic::PolicyTable::BuiltIn().Find("LA"));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_EQ(local->rows.size(), kSampleK);

  // --- simulated path: same statistics ---------------------------------
  cluster::ClusterConfig config = cluster::ClusterConfig::SingleUser();
  // Match the local mini-cluster's parallelism (8 worker threads).
  config.num_nodes = 4;
  config.map_slots_per_node = 2;
  testbed::Testbed bed(config);
  dfs::FileInfo file =
      *bed.fs().CreateFile("cross", kPartitions, kRecords, 132);
  sampling::SamplingJobOptions options;
  options.sample_size = kSampleK;
  options.seed = 4242;
  auto submission = sampling::MakeSamplingJob(
      file, data.matching_per_partition,
      *dynamic::PolicyTable::BuiltIn().Find("LA"), options);
  ASSERT_TRUE(submission.ok());
  auto sim_stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(sim_stats.ok());

  // Both paths must deliver the full sample...
  EXPECT_EQ(sim_stats->result_records, kSampleK);
  // ...and agree on the scale of work: partitions processed within 2x of
  // each other (the provider draws and timing differ, the economics not).
  double ratio = static_cast<double>(sim_stats->splits_processed) /
                 static_cast<double>(local->partitions_processed);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  // Neither may scan the whole input (uniform data, k covered by ~9).
  EXPECT_LT(local->partitions_processed, kPartitions);
  EXPECT_LT(sim_stats->splits_processed, kPartitions);
}

TEST(CrossCheckTest, SimOutputModelMatchesRealMapperCounts) {
  // The simulator's map-output model (min(k, matching)) must agree with
  // what the record-level mapper actually emits on the same partition.
  tpch::SkewSpec spec;
  spec.num_partitions = 6;
  spec.records_per_partition = 8000;
  spec.selectivity = 0.01;
  spec.zipf_z = 2.0;
  spec.seed = 9;
  auto data = *tpch::MaterializeDataset(spec);

  const uint64_t k = 50;
  auto model = sampling::SamplingMapOutputModel(k);
  for (int p = 0; p < spec.num_partitions; ++p) {
    sampling::SamplingMapper mapper(data.predicate.predicate,
                                    &tpch::LineItemSchema(), k);
    std::vector<expr::Tuple> out;
    const tpch::ColumnarPartition& part = data.partitions[p];
    for (uint32_t row = 0; row < part.num_rows(); ++row) {
      ASSERT_TRUE(mapper.Map(part.TupleAt(row), &out).ok());
    }
    mapred::InputSplit split;
    split.num_matching = data.matching_per_partition[p];
    EXPECT_EQ(model(split), out.size()) << "partition " << p;
  }
}

}  // namespace
}  // namespace dmr
