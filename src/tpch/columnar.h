#ifndef DMR_TPCH_COLUMNAR_H_
#define DMR_TPCH_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/value.h"
#include "tpch/lineitem.h"

namespace dmr::tpch {

/// \brief Physical storage class of a LINEITEM column in the columnar
/// layout consumed by the vectorized predicate engine (exec/vectorized.h).
///
/// kDate32 columns hold 'YYYY-MM-DD' strings packed as yyyymmdd int32;
/// because the textual form is fixed-width and zero-padded, numeric order
/// on the packed form coincides with the lexicographic (== chronological)
/// order the interpreted evaluator uses. kDict columns hold per-partition
/// dictionary codes; low-cardinality string columns compress to a handful
/// of distinct values, which lets LIKE and comparisons against literals be
/// resolved once per distinct value instead of once per row.
enum class ColumnKind : uint8_t { kInt64, kDouble, kDate32, kDict };

/// Physical kind of each LineItemColumn.
ColumnKind LineItemColumnKind(int column);

/// Slot of `column` within the arrays of its kind — the index into the
/// ZoneMap min/max/presence arrays below and the typed column accessors.
int LineItemColumnSlot(int column);

/// Packs a strict 'YYYY-MM-DD' string as yyyymmdd. Rejects any other shape
/// (wrong width, non-digits, out-of-range month/day fields).
Result<int32_t> EncodeDate32(std::string_view date);

/// Formats a packed date back to 'YYYY-MM-DD' into `buf` (>= 11 bytes,
/// NUL-terminated) and returns a view of the 10 characters written.
std::string_view FormatDate32(int32_t packed, char* buf);

/// Convenience allocation-returning form of FormatDate32.
std::string DecodeDate32(int32_t packed);

/// \brief Per-column string dictionary: codes are assigned in first-seen
/// order, so building is deterministic for a deterministic row stream.
class StringDictionary {
 public:
  /// Returns the code for `s`, interning it on first sight.
  uint32_t GetOrAdd(std::string_view s);

  const std::string& value(uint32_t code) const { return values_[code]; }
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }
  const std::vector<std::string>& values() const { return values_; }

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// \brief Zone map over a contiguous row range of one ColumnarPartition:
/// per-slot min/max for the numeric and date columns plus a per-dictionary
/// value-presence bitmap (bit `code` set <=> `code` occurs in the range).
/// The partition-level map covers [0, num_rows) and is maintained
/// incrementally by AppendRow, so the generator, the dataset reader and
/// FromRows all populate it for free; BuildZoneMap produces refined
/// per-range maps for the piggybacked index (exec/layout_catalog.h).
///
/// Dictionary codes are assigned in first-seen order by StringDictionary,
/// so the bitmaps — and therefore every zone-map byte — are deterministic
/// for a deterministic row stream. An empty range keeps the min sentinels
/// above the max sentinels; consumers must check rows() first.
struct ZoneMap {
  static constexpr int kI64Slots = 5;
  static constexpr int kF64Slots = 3;
  static constexpr int kDateSlots = 3;
  static constexpr int kDictSlots = 5;

  uint32_t row_begin = 0;
  uint32_t row_end = 0;  // exclusive

  /// Per-kind validity bitmasks: bit `slot` set <=> that slot's min/max (or
  /// presence bitmap) was actually folded over the range. Piggybacked
  /// per-batch maps fold only the columns the triggering predicate reads
  /// (near-zero build overhead, LIAH-style); consumers must treat an
  /// invalid slot as "could hold anything". The incremental partition-level
  /// map folds every column, so the default is all-valid.
  uint8_t i64_valid = (1u << kI64Slots) - 1;
  uint8_t f64_valid = (1u << kF64Slots) - 1;
  uint8_t date_valid = (1u << kDateSlots) - 1;
  uint8_t dict_valid = (1u << kDictSlots) - 1;

  int64_t i64_min[kI64Slots];
  int64_t i64_max[kI64Slots];
  double f64_min[kF64Slots];
  double f64_max[kF64Slots];
  int32_t date_min[kDateSlots];
  int32_t date_max[kDateSlots];
  /// Presence bitmap per dict slot, indexed by dictionary code; sized lazily
  /// to the highest code seen in the range (absent words mean absent codes).
  std::vector<uint64_t> dict_present[kDictSlots];

  ZoneMap();

  uint32_t rows() const { return row_end - row_begin; }

  bool I64Valid(int slot) const { return (i64_valid >> slot) & 1; }
  bool F64Valid(int slot) const { return (f64_valid >> slot) & 1; }
  bool DateValid(int slot) const { return (date_valid >> slot) & 1; }
  bool DictValid(int slot) const { return (dict_valid >> slot) & 1; }

  /// True when dictionary code `code` of dict slot `slot` occurs in range.
  /// Meaningful only when DictValid(slot).
  bool DictHas(int slot, uint32_t code) const;

  /// Marks dictionary code `code` of dict slot `slot` present.
  void MarkDict(int slot, uint32_t code);
};

/// \brief Selects which column slots BuildZoneMap folds — the piggybacked
/// index builds maps only over the columns its predicate consults, so the
/// extra pass costs about as much as the predicate scan itself instead of
/// touching all sixteen columns. Defaults to every column.
struct ZoneMapColumns {
  uint8_t i64 = (1u << ZoneMap::kI64Slots) - 1;
  uint8_t f64 = (1u << ZoneMap::kF64Slots) - 1;
  uint8_t date = (1u << ZoneMap::kDateSlots) - 1;
  uint8_t dict = (1u << ZoneMap::kDictSlots) - 1;

  static ZoneMapColumns All() { return ZoneMapColumns(); }
  static ZoneMapColumns None() { return ZoneMapColumns{0, 0, 0, 0}; }

  bool empty() const { return i64 == 0 && f64 == 0 && date == 0 && dict == 0; }

  /// Marks LineItemColumn `column` (schema index) as selected.
  void MarkColumn(int column);
};

/// \brief One LINEITEM partition in columnar form: fixed-width arrays for
/// numeric and date columns, dictionary codes for string columns. This is
/// the only in-memory form of a partition: the generator and the dataset
/// reader append rows straight into it, the vectorized engine scans it in
/// batches, and the interpreted engine and the on-disk text format read
/// rows back with TupleAt and RowAt.
class ColumnarPartition {
 public:
  ColumnarPartition();

  /// Converts a row-oriented partition. Fails if a date column holds a
  /// string that is not strict 'YYYY-MM-DD' (the layout cannot represent
  /// it; such rows never come out of LineItemGenerator).
  static Result<ColumnarPartition> FromRows(
      const std::vector<LineItemRow>& rows);

  /// Reserves every column for `rows` rows.
  void Reserve(uint32_t rows);

  /// Appends one row. Fails, appending nothing, if a date column holds a
  /// string that is not strict 'YYYY-MM-DD'.
  Status AppendRow(const LineItemRow& row);

  uint32_t num_rows() const { return num_rows_; }

  /// Typed column accessors; the slot must match LineItemColumnKind.
  const std::vector<int64_t>& Int64Column(int column) const;
  const std::vector<double>& DoubleColumn(int column) const;
  const std::vector<int32_t>& Date32Column(int column) const;
  const std::vector<uint32_t>& DictCodes(int column) const;
  const StringDictionary& Dictionary(int column) const;

  /// Reconstructs row `row` (byte-identical to the LineItemRow that was
  /// appended/converted).
  LineItemRow RowAt(uint32_t row) const;

  /// Materializes row `row` as a typed tuple in schema order — identical
  /// to tpch::ToTuple(RowAt(row)) without the intermediate struct. This is
  /// the row the interpreted engine evaluates.
  expr::Tuple TupleAt(uint32_t row) const;

  /// Materializes a single column value of row `row`.
  expr::Value ValueAt(int column, uint32_t row) const;

  /// Approximate heap footprint (for tests / sizing notes).
  size_t MemoryBytes() const;

  /// Partition-level zone map over [0, num_rows), maintained incrementally.
  const ZoneMap& zone_map() const { return zone_map_; }

  /// Builds a refined zone map over rows [begin, end) — the piggybacked
  /// per-batch index of exec/layout_catalog.h. `begin <= end <= num_rows`.
  /// Only the slots selected by `cols` are folded (column-major tight
  /// loops); unselected slots are marked invalid in the result and read as
  /// "unknown" by the zone-map evaluator.
  ZoneMap BuildZoneMap(uint32_t begin, uint32_t end,
                       const ZoneMapColumns& cols = ZoneMapColumns()) const;

 private:
  friend class ColumnarPartitionTestPeer;

  /// Folds the already-stored row `row` into `*zm` (min/max + dict bits).
  void FoldRowIntoZoneMap(uint32_t row, ZoneMap* zm) const;

  uint32_t num_rows_ = 0;
  // Slot order within each kind follows LineItemColumn order.
  std::vector<std::vector<int64_t>> i64_;     // orderkey..quantity
  std::vector<std::vector<double>> f64_;      // extendedprice, discount, tax
  std::vector<std::vector<int32_t>> date_;    // shipdate, commitdate, receiptdate
  std::vector<std::vector<uint32_t>> codes_;  // returnflag..comment
  std::vector<StringDictionary> dicts_;
  ZoneMap zone_map_;
};

}  // namespace dmr::tpch

#endif  // DMR_TPCH_COLUMNAR_H_
