// Pins what exec::LocalRuntime returns — the sampled rows, the records
// scanned, the partitions processed, the provider rounds and the final
// selectivity estimate — for every Table I policy on both predicate engines
// and both reduce-side trim modes, over one materialized dataset and over
// the same dataset written to disk and read back. A change to how a dataset
// is held in memory, loaded or scanned that keeps every output keeps each
// hash below; one that moves a single row, counter or draw changes them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <variant>

#include "dynamic/growth_policy.h"
#include "exec/local_runtime.h"
#include "hive/compiler.h"
#include "tpch/dataset_catalog.h"
#include "tpch/dataset_io.h"
#include "tpch/lineitem.h"

namespace dmr {
namespace {

namespace fs = std::filesystem;

/// FNV-1a over the fields of a run, in a fixed order.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const expr::Value& v) {
    Add(static_cast<uint64_t>(v.index()));
    if (const auto* s = std::get_if<std::string>(&v)) {
      Add(std::string_view(*s));
    } else if (const auto* d = std::get_if<double>(&v)) {
      Add(*d);
    } else if (const auto* i = std::get_if<int64_t>(&v)) {
      Add(*i);
    } else {
      Add(static_cast<uint64_t>(std::get<bool>(v)));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr const char* kPolicies[] = {"Hadoop", "HA", "MA", "LA", "C"};
constexpr sampling::SampleMode kModes[] = {sampling::SampleMode::kFirstK,
                                           sampling::SampleMode::kReservoir};
constexpr uint64_t kSeeds[] = {1, 7, 2012};
constexpr const char* kQuery =
    "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 40";

/// 16 x 1,000 rows at z = 1 with 160 matches: LIMIT 40 stops the dynamic
/// policies part way, and Hadoop scans everything.
tpch::MaterializedDataset MakeDataset() {
  tpch::SkewSpec spec;
  spec.num_partitions = 16;
  spec.records_per_partition = 1000;
  spec.selectivity = 0.01;
  spec.zipf_z = 1.0;
  spec.seed = 20120402;
  Result<tpch::MaterializedDataset> dataset = tpch::MaterializeDataset(spec);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *std::move(dataset);
}

struct RunsHash {
  uint64_t digest = 0;
  // Coverage of the paths the digest pins (not pinned themselves).
  int runs = 0;
  int stopped_early = 0;
};

/// One digest over every (policy, trim mode, seed) run on `engine`. The
/// engine itself is left out, so both engines must give the same digest.
RunsHash HashRuns(const tpch::MaterializedDataset& dataset,
                  exec::Engine engine) {
  hive::HiveCompiler compiler(&tpch::LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  Fnv fnv;
  RunsHash out;
  for (const char* policy_name : kPolicies) {
    EXPECT_TRUE(
        compiler.Process(std::string("SET dynamic.job.policy = ") +
                         policy_name)
            .ok());
    Result<hive::HiveCompiler::SessionResult> compiled =
        compiler.Process(kQuery);
    EXPECT_TRUE(compiled.ok() && compiled->query.has_value());
    Result<dynamic::GrowthPolicy> policy = compiler.CurrentPolicy();
    EXPECT_TRUE(policy.ok());
    if (!compiled.ok() || !compiled->query.has_value() || !policy.ok()) {
      return out;
    }
    for (sampling::SampleMode mode : kModes) {
      for (uint64_t seed : kSeeds) {
        exec::LocalRunOptions options;
        options.num_threads = 4;
        options.sample_mode = mode;
        options.seed = seed;
        options.engine = engine;
        Result<exec::LocalRunResult> result =
            exec::LocalRuntime(options).Execute(*compiled->query, dataset,
                                                *policy);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return out;
        fnv.Add(std::string_view(policy_name));
        fnv.Add(static_cast<int>(mode));
        fnv.Add(seed);
        fnv.Add(static_cast<uint64_t>(result->rows.size()));
        for (const expr::Tuple& row : result->rows) {
          fnv.Add(static_cast<uint64_t>(row.size()));
          for (const expr::Value& value : row) fnv.Add(value);
        }
        fnv.Add(result->records_scanned);
        fnv.Add(result->partitions_processed);
        fnv.Add(result->provider_rounds);
        fnv.Add(result->estimated_selectivity);
        ++out.runs;
        if (result->partitions_processed < result->partitions_total) {
          ++out.stopped_early;
        }
      }
    }
  }
  out.digest = fnv.value();
  return out;
}

/// The digest of every run, the same for both engines and both forms of
/// the dataset.
constexpr uint64_t kPinned = 0xf414852b6d07a3eaULL;

void ExpectPinned(const tpch::MaterializedDataset& dataset, const char* form) {
  for (exec::Engine engine :
       {exec::Engine::kInterpreted, exec::Engine::kVectorized}) {
    SCOPED_TRACE(std::string(form) + ", " + exec::EngineToString(engine));
    RunsHash runs = HashRuns(dataset, engine);
    EXPECT_EQ(runs.runs, 5 * 2 * 3);
    EXPECT_GT(runs.stopped_early, 0);
    EXPECT_LT(runs.stopped_early, runs.runs);
    EXPECT_EQ(runs.digest, kPinned) << std::hex << "0x" << runs.digest;
  }
}

TEST(LocalRuntimePinTest, MaterializedDatasetIsPinned) {
  ExpectPinned(MakeDataset(), "materialized");
}

TEST(LocalRuntimePinTest, DatasetReadFromDiskIsPinned) {
  const fs::path dir = fs::temp_directory_path() /
                       ("dmr_local_runtime_pin_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ASSERT_TRUE(tpch::WriteDatasetToDirectory(MakeDataset(), dir.string()).ok());
  Result<tpch::MaterializedDataset> loaded =
      tpch::ReadDatasetFromDirectory(dir.string());
  fs::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPinned(*loaded, "read from disk");
}

}  // namespace
}  // namespace dmr
