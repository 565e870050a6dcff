#include "tpch/dataset_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/properties.h"
#include "common/random.h"
#include "exec/local_runtime.h"
#include "hive/compiler.h"

namespace dmr::tpch {
namespace {

namespace fs = std::filesystem;

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dmr_io_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  MaterializedDataset MakeData() {
    SkewSpec spec;
    spec.num_partitions = 4;
    spec.records_per_partition = 500;
    spec.selectivity = 0.02;
    spec.zipf_z = 1.0;
    spec.seed = 13;
    return *MaterializeDataset(spec);
  }

  static std::string ReadFile(const fs::path& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  static void WriteFile(const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  /// Rewrites one MANIFEST entry of the dataset under dir_.
  void SetManifest(const std::string& key, const std::string& value) {
    Result<Properties> manifest =
        Properties::Parse(ReadFile(dir_ / "MANIFEST"));
    ASSERT_TRUE(manifest.ok());
    manifest->Set(key, value);
    WriteFile(dir_ / "MANIFEST", manifest->ToString());
  }

  fs::path dir_;
};

TEST_F(DatasetIoTest, WriteReadRoundTrip) {
  MaterializedDataset original = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(original, dir_.string()).ok());
  EXPECT_TRUE(fs::exists(dir_ / "MANIFEST"));
  EXPECT_TRUE(fs::exists(dir_ / "part-00000.tbl"));

  auto loaded = ReadDatasetFromDirectory(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->partitions.size(), original.partitions.size());
  EXPECT_EQ(loaded->matching_per_partition,
            original.matching_per_partition);
  EXPECT_EQ(loaded->predicate.name, original.predicate.name);
  for (size_t p = 0; p < original.partitions.size(); ++p) {
    const ColumnarPartition& part = loaded->partitions[p];
    ASSERT_EQ(part.num_rows(), original.partitions[p].num_rows());
    for (uint32_t r = 0; r < part.num_rows(); ++r) {
      EXPECT_EQ(SerializeRow(part.RowAt(r)),
                SerializeRow(original.partitions[p].RowAt(r)));
    }
  }
}

TEST_F(DatasetIoTest, RefusesToOverwrite) {
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  EXPECT_TRUE(
      WriteDatasetToDirectory(data, dir_.string()).IsAlreadyExists());
}

TEST_F(DatasetIoTest, MissingManifestIsNotFound) {
  fs::create_directories(dir_);
  EXPECT_TRUE(
      ReadDatasetFromDirectory(dir_.string()).status().IsNotFound());
}

TEST_F(DatasetIoTest, MissingDirectoryIsNotFound) {
  EXPECT_TRUE(ReadDatasetFromDirectory((dir_ / "nope").string())
                  .status()
                  .IsNotFound());
}

TEST_F(DatasetIoTest, CorruptPartitionFileIsParseError) {
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  std::ofstream out(dir_ / "part-00002.tbl", std::ios::app);
  out << "this is not a lineitem row\n";
  out.close();
  EXPECT_TRUE(
      ReadDatasetFromDirectory(dir_.string()).status().IsParseError());
}

TEST_F(DatasetIoTest, ReadPartitionFileSkipsBlankLines) {
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  std::ofstream out(dir_ / "part-00000.tbl", std::ios::app);
  out << "\n\n";
  out.close();
  auto part = ReadPartitionFile((dir_ / "part-00000.tbl").string());
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->num_rows(), data.partitions[0].num_rows());
}

TEST_F(DatasetIoTest, NonCanonicalDateIsRefusedAtLoad) {
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  LineItemRow row = data.partitions[1].RowAt(0);
  row.shipdate = "1994-3-17";
  std::ofstream out(dir_ / "part-00001.tbl", std::ios::app);
  out << SerializeRow(row) << "\n";
  out.close();
  Result<MaterializedDataset> loaded = ReadDatasetFromDirectory(dir_.string());
  ASSERT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
  const std::string where = (dir_ / "part-00001.tbl").string() + ":" +
                            std::to_string(data.partitions[1].num_rows() + 1);
  EXPECT_NE(loaded.status().message().find(where), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(DatasetIoTest, PartitionCountBeyondManifestIsParseError) {
  ASSERT_TRUE(WriteDatasetToDirectory(MakeData(), dir_.string()).ok());
  // Reserving these counts unchecked throws std::length_error and
  // std::bad_alloc; 5 exceeds the partitions the MANIFEST describes.
  for (const char* count : {"4000000000000000000", "100000000000000", "5"}) {
    SetManifest("num_partitions", count);
    EXPECT_TRUE(ReadDatasetFromDirectory(dir_.string()).status().IsParseError())
        << count;
  }
}

TEST_F(DatasetIoTest, MatchingAbovePartitionRowsIsParseError) {
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  SetManifest("matching.2", std::to_string(data.partitions[2].num_rows()));
  EXPECT_TRUE(ReadDatasetFromDirectory(dir_.string()).ok());
  SetManifest("matching.2", std::to_string(data.partitions[2].num_rows() + 1));
  EXPECT_TRUE(
      ReadDatasetFromDirectory(dir_.string()).status().IsParseError());
}

TEST_F(DatasetIoTest, LoadedDatasetExecutesQueries) {
  // End to end: write to disk, read back, sample with the LocalRuntime —
  // the paper's "data resides in a filesystem" scenario for real.
  MaterializedDataset data = MakeData();
  ASSERT_TRUE(WriteDatasetToDirectory(data, dir_.string()).ok());
  auto loaded = *ReadDatasetFromDirectory(dir_.string());

  hive::HiveCompiler compiler(&LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  auto compiled = compiler.Process(
      "SELECT ORDERKEY FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 10");
  ASSERT_TRUE(compiled.ok());
  exec::LocalRuntime runtime({.num_threads = 2});
  auto result =
      runtime.Execute(*compiled->query, loaded,
                      *dynamic::PolicyTable::BuiltIn().Find("LA"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

/// Seeded mutational fuzzing of the dataset reader over a written dataset:
/// each input edits the MANIFEST or the first part file a few times — a
/// dictionary word inserted or swapped in for a value, byte flips, deletions
/// and splices of the other file. Every read must return OK or an error
/// Status, and an accepted dataset must hold what the reader checks.
class DatasetIoFuzzTest : public DatasetIoTest {
 protected:
  const std::string& Pick(const std::vector<std::string>& words) {
    return words[rng_.NextBounded(words.size())];
  }

  std::string Mutate(std::string text, char sep, const std::string& other) {
    const int edits = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng_.NextBounded(text.size() + 1);
      switch (rng_.NextBounded(5)) {
        case 0:
          text.insert(pos, Pick(kDictionary));
          break;
        case 1: {  // swap the field after the next separator for a word
          const size_t from = text.find(sep, pos);
          if (from == std::string::npos) break;
          size_t to = text.find_first_of(std::string(1, sep) + "\n", from + 1);
          if (to == std::string::npos) to = text.size();
          text.replace(from + 1, to - from - 1, Pick(kDictionary));
          break;
        }
        case 2:
          text.erase(pos, rng_.NextBounded(8));
          break;
        case 3:
          if (!text.empty()) {
            text[rng_.NextBounded(text.size())] =
                static_cast<char>(rng_.NextBounded(256));
          }
          break;
        default: {
          const size_t from = rng_.NextBounded(other.size());
          text.insert(pos, other.substr(from, rng_.NextBounded(60)));
          break;
        }
      }
    }
    return text;
  }

  inline static const std::vector<std::string> kDictionary = {
      "4000000000000000000", "100000000000000", "9223372036854775808",
      "-1", "0", "-0", "3", "41", "1e999", "nan", "inf", "0.11",
      "1994-3-17", "1994-13-01", "0000-00-00", "9999-99-99", "", "|", "||",
      "\n", " = ", "#", "matching.", "num_partitions", "predicate.name",
      "DISC_GT_10PCT", "QTY_GT_50", "NOT_A_PREDICATE"};

  Rng rng_{20120402};
};

TEST_F(DatasetIoFuzzTest, MutatedManifestsAndPartsReturnStatus) {
  SkewSpec spec;
  spec.num_partitions = 3;
  spec.records_per_partition = 40;
  spec.selectivity = 0.05;
  spec.zipf_z = 1.0;
  spec.seed = 17;
  ASSERT_TRUE(
      WriteDatasetToDirectory(*MaterializeDataset(spec), dir_.string()).ok());
  const fs::path manifest_path = dir_ / "MANIFEST";
  const fs::path part_path = dir_ / "part-00000.tbl";
  const std::string manifest = ReadFile(manifest_path);
  const std::string part = ReadFile(part_path);
  ASSERT_TRUE(ReadDatasetFromDirectory(dir_.string()).ok());

  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 3000; ++i) {
    const bool edit_manifest = rng_.NextBounded(2) == 0;
    const std::string input = edit_manifest ? Mutate(manifest, '=', part)
                                            : Mutate(part, '|', manifest);
    WriteFile(edit_manifest ? manifest_path : part_path, input);
    Result<MaterializedDataset> loaded =
        ReadDatasetFromDirectory(dir_.string());
    WriteFile(edit_manifest ? manifest_path : part_path,
              edit_manifest ? manifest : part);
    if (!loaded.ok()) {
      ++refused;
      EXPECT_TRUE(loaded.status().IsParseError() ||
                  loaded.status().IsNotFound() || loaded.status().IsIoError())
          << loaded.status().ToString() << "\ninput:\n" << input;
      continue;
    }
    ++accepted;
    ASSERT_EQ(loaded->partitions.size(),
              loaded->matching_per_partition.size())
        << input;
    for (size_t p = 0; p < loaded->partitions.size(); ++p) {
      EXPECT_LE(loaded->matching_per_partition[p],
                loaded->partitions[p].num_rows())
          << input;
    }
  }
  // Both paths ran: the fuzzer neither only breaks nor only keeps inputs.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

}  // namespace
}  // namespace dmr::tpch
