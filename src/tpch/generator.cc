#include "tpch/generator.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "prof/prof.h"

namespace dmr::tpch {

namespace {

const char* kReturnFlags[] = {"R", "A", "N"};
const char* kLineStatusValues[] = {"O", "F"};
const char* kShipInstructValues[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK",
                            "MAIL", "FOB"};
const char* kCommentWords[] = {"carefully", "quickly", "furiously", "slyly",
                               "blithely", "deposits", "requests", "packages",
                               "accounts", "theodolites", "pinto", "beans"};

std::string RandomDate(Rng* rng, int year_lo, int year_hi) {
  int year = static_cast<int>(rng->NextInRange(year_lo, year_hi));
  int month = static_cast<int>(rng->NextInRange(1, 12));
  int day = static_cast<int>(rng->NextInRange(1, 28));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

}  // namespace

LineItemGenerator::LineItemGenerator(uint64_t seed) : rng_(seed) {}

LineItemRow LineItemGenerator::NextBaseRow() {
  LineItemRow row;
  row.orderkey = next_orderkey_++;
  row.partkey = rng_.NextInRange(1, 200000);
  row.suppkey = rng_.NextInRange(1, 10000);
  row.linenumber = rng_.NextInRange(1, 7);
  row.quantity = rng_.NextInRange(1, 50);
  row.extendedprice =
      std::round(static_cast<double>(row.quantity) *
                 (900.0 + static_cast<double>(rng_.NextInRange(0, 110000)) /
                              100.0) *
                 100.0) /
      100.0;
  row.discount = 0.01 * static_cast<double>(rng_.NextInRange(0, 10));
  row.tax = 0.01 * static_cast<double>(rng_.NextInRange(0, 8));
  row.returnflag = kReturnFlags[rng_.NextBounded(3)];
  row.linestatus = kLineStatusValues[rng_.NextBounded(2)];
  row.shipdate = RandomDate(&rng_, 1992, 1998);
  row.commitdate = RandomDate(&rng_, 1992, 1998);
  row.receiptdate = RandomDate(&rng_, 1992, 1998);
  row.shipinstruct = kShipInstructValues[rng_.NextBounded(4)];
  row.shipmode = kShipModes[rng_.NextBounded(7)];
  row.comment = std::string(kCommentWords[rng_.NextBounded(12)]) + " " +
                kCommentWords[rng_.NextBounded(12)];
  return row;
}

Result<ColumnarPartition> LineItemGenerator::GenerateColumnarPartition(
    uint64_t num_records, uint64_t num_matching, const SkewPredicate& pred) {
  if (num_matching > num_records) {
    return Status::InvalidArgument(
        "num_matching exceeds num_records (" + std::to_string(num_matching) +
        " > " + std::to_string(num_records) + ")");
  }
  ColumnarPartition part;
  part.Reserve(static_cast<uint32_t>(num_records));
  uint64_t remaining_matching = num_matching;
  for (uint64_t i = 0; i < num_records; ++i) {
    LineItemRow row = NextBaseRow();
    uint64_t remaining_rows = num_records - i;
    // Exact uniform placement: include this row among the matching set with
    // probability remaining_matching / remaining_rows.
    bool matching =
        remaining_matching > 0 &&
        rng_.NextBounded(remaining_rows) < remaining_matching;
    if (matching) {
      pred.make_matching(&rng_, &row);
      --remaining_matching;
    } else {
      pred.make_non_matching(&rng_, &row);
    }
    DMR_RETURN_NOT_OK(part.AppendRow(row));
  }
  return part;
}

uint64_t MaterializedDataset::total_records() const {
  uint64_t total = 0;
  for (const auto& p : partitions) total += p.num_rows();
  return total;
}

uint64_t MaterializedDataset::total_matching() const {
  uint64_t total = 0;
  for (uint64_t m : matching_per_partition) total += m;
  return total;
}

Result<MaterializedDataset> MaterializeDataset(const SkewSpec& spec) {
  DMR_ASSIGN_OR_RETURN(SkewPredicate pred, PredicateForSkew(spec.zipf_z));
  return MaterializeDataset(spec, pred);
}

Result<MaterializedDataset> MaterializeDataset(const SkewSpec& spec,
                                               const SkewPredicate& pred) {
  DMR_ASSIGN_OR_RETURN(std::shared_ptr<const std::vector<uint64_t>> shared,
                       AssignMatchingRecordsShared(spec));
  const std::vector<uint64_t>& matching = *shared;
  MaterializedDataset ds;
  ds.predicate = pred;
  ds.matching_per_partition = matching;
  ds.partitions.reserve(spec.num_partitions);
  LineItemGenerator gen(spec.seed ^ 0xABCD1234ULL);
  for (int i = 0; i < spec.num_partitions; ++i) {
    DMR_ASSIGN_OR_RETURN(ColumnarPartition part,
                         gen.GenerateColumnarPartition(
                             spec.records_per_partition, matching[i], pred));
    ds.partitions.push_back(std::move(part));
  }
  return ds;
}

namespace {

using SharedDataset = std::shared_ptr<const MaterializedDataset>;

/// The predicate-independent part of the cache key: everything the
/// matching-count assignment (and the stats derived from it) depends on.
std::string SpecCacheKey(const SkewSpec& spec) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "p=%d|r=%llu|sel=%.17g|z=%.17g|seed=%llu|",
                spec.num_partitions,
                static_cast<unsigned long long>(spec.records_per_partition),
                spec.selectivity, spec.zipf_z,
                static_cast<unsigned long long>(spec.seed));
  return buf;
}

std::string DatasetCacheKey(const SkewSpec& spec, const SkewPredicate& pred) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pz=%.17g|", pred.zipf_z);
  return SpecCacheKey(spec) + buf + pred.name + "|" + pred.sql;
}

}  // namespace

Result<std::shared_ptr<const std::vector<uint64_t>>>
AssignMatchingRecordsShared(const SkewSpec& spec) {
  using SharedCounts = std::shared_ptr<const std::vector<uint64_t>>;
  static std::mutex mu;
  static auto& entries =
      *new std::unordered_map<std::string, Result<SharedCounts>>();
  const std::string key = SpecCacheKey(spec);
  std::lock_guard<std::mutex> lock(mu);
  auto it = entries.find(key);
  if (it == entries.end()) {
    Result<std::vector<uint64_t>> counts = AssignMatchingRecords(spec);
    Result<SharedCounts> entry =
        counts.ok() ? Result<SharedCounts>(
                          std::make_shared<const std::vector<uint64_t>>(
                              std::move(*counts)))
                    : Result<SharedCounts>(counts.status());
    it = entries.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

Result<SharedDataset> MaterializeDatasetShared(const SkewSpec& spec) {
  DMR_ASSIGN_OR_RETURN(SkewPredicate pred, PredicateForSkew(spec.zipf_z));
  return MaterializeDatasetShared(spec, pred);
}

Result<SharedDataset> MaterializeDatasetShared(const SkewSpec& spec,
                                               const SkewPredicate& pred) {
  // One entry per key, built once: a second thread asking for a dataset that
  // is still being generated waits in call_once on the same generation
  // instead of starting its own.
  struct Entry {
    std::once_flag built;
    Result<SharedDataset> dataset = Status::Internal("dataset not built");
  };
  static std::mutex mu;
  static auto& entries =
      *new std::unordered_map<std::string, std::unique_ptr<Entry>>();
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<Entry>& slot = entries[DatasetCacheKey(spec, pred)];
    if (!slot) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  bool hit = true;
  std::call_once(entry->built, [&] {
    hit = false;
    static const prof::PhaseId kMaterializePhase =
        prof::RegisterPhase("tpch", "materialize_dataset");
    prof::ScopedTimer prof_frame(kMaterializePhase);
    Result<MaterializedDataset> ds = MaterializeDataset(spec, pred);
    if (ds.ok()) {
      uint64_t bytes = 0;
      for (const auto& part : ds->partitions) bytes += part.MemoryBytes();
      prof::AccountAlloc(prof::AllocSite::kDatasetCacheBuild, 1, bytes);
      entry->dataset =
          std::make_shared<const MaterializedDataset>(std::move(*ds));
    } else {
      entry->dataset = ds.status();
    }
  });
  if (hit) prof::AccountAlloc(prof::AllocSite::kDatasetCacheHit, 1, 0);
  return entry->dataset;
}

}  // namespace dmr::tpch
