#include "tpch/columnar.h"

#include <gtest/gtest.h>

#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace dmr::tpch {
namespace {

TEST(Date32Test, EncodesCanonicalDates) {
  auto packed = EncodeDate32("1994-03-17");
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(*packed, 19940317);
  EXPECT_EQ(DecodeDate32(*packed), "1994-03-17");
}

TEST(Date32Test, RoundTripsAcrossTheTpchRange) {
  for (int year = 1992; year <= 1998; ++year) {
    for (int month = 1; month <= 12; ++month) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, 28);
      auto packed = EncodeDate32(buf);
      ASSERT_TRUE(packed.ok()) << buf;
      EXPECT_EQ(DecodeDate32(*packed), buf);
    }
  }
}

TEST(Date32Test, PackedOrderMatchesLexicographicOrder) {
  const char* dates[] = {"1992-01-01", "1992-01-02", "1992-02-01",
                         "1993-01-01", "1998-12-31"};
  for (size_t a = 0; a < std::size(dates); ++a) {
    for (size_t b = 0; b < std::size(dates); ++b) {
      int lex = std::string_view(dates[a]).compare(dates[b]);
      int32_t pa = *EncodeDate32(dates[a]);
      int32_t pb = *EncodeDate32(dates[b]);
      EXPECT_EQ(lex < 0, pa < pb);
      EXPECT_EQ(lex == 0, pa == pb);
    }
  }
}

TEST(Date32Test, RejectsNonCanonicalShapes) {
  EXPECT_FALSE(EncodeDate32("").ok());
  EXPECT_FALSE(EncodeDate32("1994-3-17").ok());
  EXPECT_FALSE(EncodeDate32("94-03-17").ok());
  EXPECT_FALSE(EncodeDate32("1994/03/17").ok());
  EXPECT_FALSE(EncodeDate32("1994-13-01").ok());
  EXPECT_FALSE(EncodeDate32("1994-00-01").ok());
  EXPECT_FALSE(EncodeDate32("1994-01-32").ok());
  EXPECT_FALSE(EncodeDate32("1994-01-00").ok());
  EXPECT_FALSE(EncodeDate32("1994-01-0x").ok());
  EXPECT_FALSE(EncodeDate32("1994-01-01 ").ok());
}

TEST(StringDictionaryTest, AssignsCodesInFirstSeenOrder) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("AIR"), 0u);
  EXPECT_EQ(dict.GetOrAdd("RAIL"), 1u);
  EXPECT_EQ(dict.GetOrAdd("AIR"), 0u);
  EXPECT_EQ(dict.GetOrAdd("SHIP"), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.value(1), "RAIL");
}

TEST(ColumnarPartitionTest, ColumnKindsCoverTheSchema) {
  EXPECT_EQ(LineItemColumnKind(kOrderKey), ColumnKind::kInt64);
  EXPECT_EQ(LineItemColumnKind(kQuantity), ColumnKind::kInt64);
  EXPECT_EQ(LineItemColumnKind(kExtendedPrice), ColumnKind::kDouble);
  EXPECT_EQ(LineItemColumnKind(kTax), ColumnKind::kDouble);
  EXPECT_EQ(LineItemColumnKind(kShipDate), ColumnKind::kDate32);
  EXPECT_EQ(LineItemColumnKind(kReceiptDate), ColumnKind::kDate32);
  EXPECT_EQ(LineItemColumnKind(kReturnFlag), ColumnKind::kDict);
  EXPECT_EQ(LineItemColumnKind(kComment), ColumnKind::kDict);
}

std::vector<LineItemRow> GenerateRows(uint64_t n, uint64_t seed = 11) {
  LineItemGenerator gen(seed);
  std::vector<LineItemRow> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) rows.push_back(gen.NextBaseRow());
  return rows;
}

TEST(ColumnarPartitionTest, RowsRoundTripByteIdentically) {
  auto rows = GenerateRows(500);
  auto part = ColumnarPartition::FromRows(rows);
  ASSERT_TRUE(part.ok());
  ASSERT_EQ(part->num_rows(), 500u);
  for (uint32_t i = 0; i < part->num_rows(); ++i) {
    EXPECT_EQ(SerializeRow(part->RowAt(i)), SerializeRow(rows[i]));
  }
}

TEST(ColumnarPartitionTest, TupleAtMatchesToTuple) {
  auto rows = GenerateRows(100, 23);
  auto part = ColumnarPartition::FromRows(rows);
  ASSERT_TRUE(part.ok());
  for (uint32_t i = 0; i < part->num_rows(); ++i) {
    expr::Tuple expected = ToTuple(rows[i]);
    expr::Tuple actual = part->TupleAt(i);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(actual[c], expected[c]) << "row " << i << " col " << c;
      EXPECT_EQ(part->ValueAt(static_cast<int>(c), i), expected[c]);
    }
  }
}

TEST(ColumnarPartitionTest, RejectsNonCanonicalDates) {
  LineItemGenerator gen(3);
  LineItemRow row = gen.NextBaseRow();
  row.shipdate = "1994-3-17";
  ColumnarPartition part;
  EXPECT_FALSE(part.AppendRow(row).ok());
}

TEST(ColumnarPartitionTest, DictionariesStayLowCardinality) {
  auto rows = GenerateRows(2000, 7);
  auto part = ColumnarPartition::FromRows(rows);
  ASSERT_TRUE(part.ok());
  EXPECT_LE(part->Dictionary(kReturnFlag).size(), 3u);
  EXPECT_LE(part->Dictionary(kLineStatus).size(), 2u);
  EXPECT_LE(part->Dictionary(kShipMode).size(), 7u);
  EXPECT_GT(part->MemoryBytes(), 0u);
}

/// FNV-1a over every row's SerializeRow text, one line per row.
uint64_t RowsDigest(const ColumnarPartition& part, uint64_t h) {
  for (uint32_t i = 0; i < part.num_rows(); ++i) {
    for (char c : SerializeRow(part.RowAt(i)) + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// The digests below pin the generated rows: a change to the RNG stream,
// the placement loop or the columnar round trip moves them.
TEST(ColumnarPartitionTest, GeneratorProducesSameRowsDirectly) {
  LineItemGenerator gen(77);
  auto part = gen.GenerateColumnarPartition(1000, 50, PredicateSuite()[0]);
  ASSERT_TRUE(part.ok());
  ASSERT_EQ(part->num_rows(), 1000u);
  EXPECT_EQ(RowsDigest(*part, kFnvBasis), 0x916b51d0f6d8b266ULL);
}

TEST(ColumnarPartitionTest, MaterializedDatasetCarriesColumnarForm) {
  SkewSpec spec;
  spec.num_partitions = 4;
  spec.records_per_partition = 500;
  spec.selectivity = 0.01;
  spec.zipf_z = 1.0;
  auto dataset = MaterializeDataset(spec);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(dataset->partitions.size(), 4u);
  uint64_t digest = kFnvBasis;
  for (const ColumnarPartition& part : dataset->partitions) {
    ASSERT_EQ(part.num_rows(), 500u);
    EXPECT_EQ(part.zone_map().rows(), 500u);
    digest = RowsDigest(part, digest);
  }
  EXPECT_EQ(digest, 0xcef4dbf0ffbee28eULL);
}

}  // namespace
}  // namespace dmr::tpch
