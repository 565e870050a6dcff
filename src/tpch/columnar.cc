#include "tpch/columnar.h"

#include <limits>

#include "common/logging.h"
#include "prof/prof.h"

namespace dmr::tpch {

namespace {

// Slot of `column` within the arrays of its kind.
struct ColumnSlot {
  ColumnKind kind;
  int slot;
};

constexpr ColumnSlot kSlots[kNumLineItemColumns] = {
    {ColumnKind::kInt64, 0},   // ORDERKEY
    {ColumnKind::kInt64, 1},   // PARTKEY
    {ColumnKind::kInt64, 2},   // SUPPKEY
    {ColumnKind::kInt64, 3},   // LINENUMBER
    {ColumnKind::kInt64, 4},   // QUANTITY
    {ColumnKind::kDouble, 0},  // EXTENDEDPRICE
    {ColumnKind::kDouble, 1},  // DISCOUNT
    {ColumnKind::kDouble, 2},  // TAX
    {ColumnKind::kDict, 0},    // RETURNFLAG
    {ColumnKind::kDict, 1},    // LINESTATUS
    {ColumnKind::kDate32, 0},  // SHIPDATE
    {ColumnKind::kDate32, 1},  // COMMITDATE
    {ColumnKind::kDate32, 2},  // RECEIPTDATE
    {ColumnKind::kDict, 2},    // SHIPINSTRUCT
    {ColumnKind::kDict, 3},    // SHIPMODE
    {ColumnKind::kDict, 4},    // COMMENT
};

int SlotOf(int column, ColumnKind kind) {
  DMR_CHECK_GE(column, 0);
  DMR_CHECK_LT(column, int{kNumLineItemColumns});
  DMR_CHECK(kSlots[column].kind == kind);
  return kSlots[column].slot;
}

}  // namespace

ColumnKind LineItemColumnKind(int column) {
  DMR_CHECK_GE(column, 0);
  DMR_CHECK_LT(column, int{kNumLineItemColumns});
  return kSlots[column].kind;
}

int LineItemColumnSlot(int column) {
  DMR_CHECK_GE(column, 0);
  DMR_CHECK_LT(column, int{kNumLineItemColumns});
  return kSlots[column].slot;
}

Result<int32_t> EncodeDate32(std::string_view date) {
  if (date.size() != 10 || date[4] != '-' || date[7] != '-') {
    return Status::InvalidArgument("not a canonical YYYY-MM-DD date: '" +
                                   std::string(date) + "'");
  }
  int32_t fields[3] = {0, 0, 0};
  static constexpr int kSpans[3][2] = {{0, 4}, {5, 2}, {8, 2}};
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < kSpans[f][1]; ++i) {
      char c = date[kSpans[f][0] + i];
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("not a canonical YYYY-MM-DD date: '" +
                                       std::string(date) + "'");
      }
      fields[f] = fields[f] * 10 + (c - '0');
    }
  }
  if (fields[1] < 1 || fields[1] > 12 || fields[2] < 1 || fields[2] > 31) {
    return Status::InvalidArgument("out-of-range date fields in '" +
                                   std::string(date) + "'");
  }
  return fields[0] * 10000 + fields[1] * 100 + fields[2];
}

std::string_view FormatDate32(int32_t packed, char* buf) {
  int32_t year = packed / 10000;
  int32_t month = (packed / 100) % 100;
  int32_t day = packed % 100;
  buf[0] = static_cast<char>('0' + (year / 1000) % 10);
  buf[1] = static_cast<char>('0' + (year / 100) % 10);
  buf[2] = static_cast<char>('0' + (year / 10) % 10);
  buf[3] = static_cast<char>('0' + year % 10);
  buf[4] = '-';
  buf[5] = static_cast<char>('0' + month / 10);
  buf[6] = static_cast<char>('0' + month % 10);
  buf[7] = '-';
  buf[8] = static_cast<char>('0' + day / 10);
  buf[9] = static_cast<char>('0' + day % 10);
  buf[10] = '\0';
  return std::string_view(buf, 10);
}

std::string DecodeDate32(int32_t packed) {
  char buf[11];
  return std::string(FormatDate32(packed, buf));
}

ZoneMap::ZoneMap() {
  for (int s = 0; s < kI64Slots; ++s) {
    i64_min[s] = std::numeric_limits<int64_t>::max();
    i64_max[s] = std::numeric_limits<int64_t>::min();
  }
  for (int s = 0; s < kF64Slots; ++s) {
    f64_min[s] = std::numeric_limits<double>::infinity();
    f64_max[s] = -std::numeric_limits<double>::infinity();
  }
  for (int s = 0; s < kDateSlots; ++s) {
    date_min[s] = std::numeric_limits<int32_t>::max();
    date_max[s] = std::numeric_limits<int32_t>::min();
  }
}

bool ZoneMap::DictHas(int slot, uint32_t code) const {
  const std::vector<uint64_t>& words = dict_present[slot];
  uint32_t word = code >> 6;
  if (word >= words.size()) return false;
  return (words[word] >> (code & 63)) & 1;
}

void ZoneMapColumns::MarkColumn(int column) {
  const uint8_t bit = static_cast<uint8_t>(1u << LineItemColumnSlot(column));
  switch (LineItemColumnKind(column)) {
    case ColumnKind::kInt64: i64 |= bit; break;
    case ColumnKind::kDouble: f64 |= bit; break;
    case ColumnKind::kDate32: date |= bit; break;
    case ColumnKind::kDict: dict |= bit; break;
  }
}

void ZoneMap::MarkDict(int slot, uint32_t code) {
  std::vector<uint64_t>& words = dict_present[slot];
  uint32_t word = code >> 6;
  if (word >= words.size()) words.resize(word + 1, 0);
  words[word] |= uint64_t{1} << (code & 63);
}

uint32_t StringDictionary::GetOrAdd(std::string_view s) {
  auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(s);
  index_.emplace(values_.back(), code);
  return code;
}

ColumnarPartition::ColumnarPartition()
    : i64_(5), f64_(3), date_(3), codes_(5), dicts_(5) {}

Result<ColumnarPartition> ColumnarPartition::FromRows(
    const std::vector<LineItemRow>& rows) {
  static const prof::PhaseId kBuildPhase =
      prof::RegisterPhase("tpch", "columnar_build");
  prof::ScopedTimer prof_frame(kBuildPhase);
  ColumnarPartition part;
  part.Reserve(static_cast<uint32_t>(rows.size()));
  for (const auto& row : rows) {
    DMR_RETURN_NOT_OK(part.AppendRow(row));
  }
  prof::AccountAlloc(prof::AllocSite::kColumnarBuild, 1, part.MemoryBytes());
  return part;
}

void ColumnarPartition::Reserve(uint32_t rows) {
  for (auto& col : i64_) col.reserve(rows);
  for (auto& col : f64_) col.reserve(rows);
  for (auto& col : date_) col.reserve(rows);
  for (auto& col : codes_) col.reserve(rows);
}

Status ColumnarPartition::AppendRow(const LineItemRow& row) {
  DMR_ASSIGN_OR_RETURN(int32_t shipdate, EncodeDate32(row.shipdate));
  DMR_ASSIGN_OR_RETURN(int32_t commitdate, EncodeDate32(row.commitdate));
  DMR_ASSIGN_OR_RETURN(int32_t receiptdate, EncodeDate32(row.receiptdate));
  i64_[0].push_back(row.orderkey);
  i64_[1].push_back(row.partkey);
  i64_[2].push_back(row.suppkey);
  i64_[3].push_back(row.linenumber);
  i64_[4].push_back(row.quantity);
  f64_[0].push_back(row.extendedprice);
  f64_[1].push_back(row.discount);
  f64_[2].push_back(row.tax);
  date_[0].push_back(shipdate);
  date_[1].push_back(commitdate);
  date_[2].push_back(receiptdate);
  codes_[0].push_back(dicts_[0].GetOrAdd(row.returnflag));
  codes_[1].push_back(dicts_[1].GetOrAdd(row.linestatus));
  codes_[2].push_back(dicts_[2].GetOrAdd(row.shipinstruct));
  codes_[3].push_back(dicts_[3].GetOrAdd(row.shipmode));
  codes_[4].push_back(dicts_[4].GetOrAdd(row.comment));
  FoldRowIntoZoneMap(num_rows_, &zone_map_);
  ++num_rows_;
  zone_map_.row_end = num_rows_;
  return Status::OK();
}

void ColumnarPartition::FoldRowIntoZoneMap(uint32_t row, ZoneMap* zm) const {
  for (int s = 0; s < ZoneMap::kI64Slots; ++s) {
    int64_t v = i64_[s][row];
    if (v < zm->i64_min[s]) zm->i64_min[s] = v;
    if (v > zm->i64_max[s]) zm->i64_max[s] = v;
  }
  for (int s = 0; s < ZoneMap::kF64Slots; ++s) {
    double v = f64_[s][row];
    if (v < zm->f64_min[s]) zm->f64_min[s] = v;
    if (v > zm->f64_max[s]) zm->f64_max[s] = v;
  }
  for (int s = 0; s < ZoneMap::kDateSlots; ++s) {
    int32_t v = date_[s][row];
    if (v < zm->date_min[s]) zm->date_min[s] = v;
    if (v > zm->date_max[s]) zm->date_max[s] = v;
  }
  for (int s = 0; s < ZoneMap::kDictSlots; ++s) {
    zm->MarkDict(s, codes_[s][row]);
  }
}

ZoneMap ColumnarPartition::BuildZoneMap(uint32_t begin, uint32_t end,
                                        const ZoneMapColumns& cols) const {
  DMR_CHECK_LE(begin, end);
  DMR_CHECK_LE(end, num_rows_);
  ZoneMap zm;
  zm.row_begin = begin;
  zm.row_end = end;
  zm.i64_valid = cols.i64 & ((1u << ZoneMap::kI64Slots) - 1);
  zm.f64_valid = cols.f64 & ((1u << ZoneMap::kF64Slots) - 1);
  zm.date_valid = cols.date & ((1u << ZoneMap::kDateSlots) - 1);
  zm.dict_valid = cols.dict & ((1u << ZoneMap::kDictSlots) - 1);
  // Column-major folds: one tight min/max (or bit-set) sweep per selected
  // slot over its contiguous array, instead of a per-row fold that touches
  // every slot. Results are identical to the row-major fold for the
  // selected slots.
  for (int s = 0; s < ZoneMap::kI64Slots; ++s) {
    if (!zm.I64Valid(s)) continue;
    const int64_t* v = i64_[s].data();
    int64_t mn = zm.i64_min[s];
    int64_t mx = zm.i64_max[s];
    for (uint32_t row = begin; row < end; ++row) {
      mn = v[row] < mn ? v[row] : mn;
      mx = v[row] > mx ? v[row] : mx;
    }
    zm.i64_min[s] = mn;
    zm.i64_max[s] = mx;
  }
  for (int s = 0; s < ZoneMap::kF64Slots; ++s) {
    if (!zm.F64Valid(s)) continue;
    const double* v = f64_[s].data();
    double mn = zm.f64_min[s];
    double mx = zm.f64_max[s];
    for (uint32_t row = begin; row < end; ++row) {
      mn = v[row] < mn ? v[row] : mn;
      mx = v[row] > mx ? v[row] : mx;
    }
    zm.f64_min[s] = mn;
    zm.f64_max[s] = mx;
  }
  for (int s = 0; s < ZoneMap::kDateSlots; ++s) {
    if (!zm.DateValid(s)) continue;
    const int32_t* v = date_[s].data();
    int32_t mn = zm.date_min[s];
    int32_t mx = zm.date_max[s];
    for (uint32_t row = begin; row < end; ++row) {
      mn = v[row] < mn ? v[row] : mn;
      mx = v[row] > mx ? v[row] : mx;
    }
    zm.date_min[s] = mn;
    zm.date_max[s] = mx;
  }
  for (int s = 0; s < ZoneMap::kDictSlots; ++s) {
    if (!zm.DictValid(s)) continue;
    std::vector<uint64_t>& words = zm.dict_present[s];
    // Pre-size to the dictionary, set bits without per-row bounds checks,
    // then trim trailing zero words so the result is byte-identical to the
    // lazily-sized row-major fold.
    words.assign((dicts_[s].size() + 63) / 64, 0);
    const uint32_t* c = codes_[s].data();
    for (uint32_t row = begin; row < end; ++row) {
      words[c[row] >> 6] |= uint64_t{1} << (c[row] & 63);
    }
    while (!words.empty() && words.back() == 0) words.pop_back();
  }
  return zm;
}

const std::vector<int64_t>& ColumnarPartition::Int64Column(int column) const {
  return i64_[SlotOf(column, ColumnKind::kInt64)];
}

const std::vector<double>& ColumnarPartition::DoubleColumn(int column) const {
  return f64_[SlotOf(column, ColumnKind::kDouble)];
}

const std::vector<int32_t>& ColumnarPartition::Date32Column(int column) const {
  return date_[SlotOf(column, ColumnKind::kDate32)];
}

const std::vector<uint32_t>& ColumnarPartition::DictCodes(int column) const {
  return codes_[SlotOf(column, ColumnKind::kDict)];
}

const StringDictionary& ColumnarPartition::Dictionary(int column) const {
  return dicts_[SlotOf(column, ColumnKind::kDict)];
}

LineItemRow ColumnarPartition::RowAt(uint32_t row) const {
  DMR_CHECK_LT(row, num_rows_);
  LineItemRow out;
  out.orderkey = i64_[0][row];
  out.partkey = i64_[1][row];
  out.suppkey = i64_[2][row];
  out.linenumber = i64_[3][row];
  out.quantity = i64_[4][row];
  out.extendedprice = f64_[0][row];
  out.discount = f64_[1][row];
  out.tax = f64_[2][row];
  out.returnflag = dicts_[0].value(codes_[0][row]);
  out.linestatus = dicts_[1].value(codes_[1][row]);
  out.shipdate = DecodeDate32(date_[0][row]);
  out.commitdate = DecodeDate32(date_[1][row]);
  out.receiptdate = DecodeDate32(date_[2][row]);
  out.shipinstruct = dicts_[2].value(codes_[2][row]);
  out.shipmode = dicts_[3].value(codes_[3][row]);
  out.comment = dicts_[4].value(codes_[4][row]);
  return out;
}

expr::Tuple ColumnarPartition::TupleAt(uint32_t row) const {
  DMR_CHECK_LT(row, num_rows_);
  // Each value is built in place: taking it from ValueAt adds a variant
  // move per column, which slowed the interpreted scan by about a fifth.
  expr::Tuple tuple;
  tuple.reserve(kNumLineItemColumns);
  char buf[11];
  for (const ColumnSlot& slot : kSlots) {
    switch (slot.kind) {
      case ColumnKind::kInt64:
        tuple.emplace_back(std::in_place_type<int64_t>, i64_[slot.slot][row]);
        break;
      case ColumnKind::kDouble:
        tuple.emplace_back(std::in_place_type<double>, f64_[slot.slot][row]);
        break;
      case ColumnKind::kDate32:
        tuple.emplace_back(std::in_place_type<std::string>,
                           FormatDate32(date_[slot.slot][row], buf));
        break;
      case ColumnKind::kDict:
        tuple.emplace_back(std::in_place_type<std::string>,
                           dicts_[slot.slot].value(codes_[slot.slot][row]));
        break;
    }
  }
  return tuple;
}

expr::Value ColumnarPartition::ValueAt(int column, uint32_t row) const {
  DMR_CHECK_LT(row, num_rows_);
  const ColumnSlot& slot = kSlots[column];
  switch (slot.kind) {
    case ColumnKind::kInt64:
      return i64_[slot.slot][row];
    case ColumnKind::kDouble:
      return f64_[slot.slot][row];
    case ColumnKind::kDate32:
      return DecodeDate32(date_[slot.slot][row]);
    case ColumnKind::kDict:
      return dicts_[slot.slot].value(codes_[slot.slot][row]);
  }
  return expr::Value(false);  // unreachable
}

size_t ColumnarPartition::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : i64_) bytes += col.capacity() * sizeof(int64_t);
  for (const auto& col : f64_) bytes += col.capacity() * sizeof(double);
  for (const auto& col : date_) bytes += col.capacity() * sizeof(int32_t);
  for (const auto& col : codes_) bytes += col.capacity() * sizeof(uint32_t);
  for (const auto& dict : dicts_) {
    for (const auto& v : dict.values()) bytes += v.size() + sizeof(v);
  }
  return bytes;
}

}  // namespace dmr::tpch
