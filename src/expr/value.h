#ifndef DMR_EXPR_VALUE_H_
#define DMR_EXPR_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"

namespace dmr::expr {

/// \brief Runtime value types supported by the expression evaluator.
///
/// Dates are carried as kString in 'YYYY-MM-DD' form; lexicographic
/// comparison coincides with chronological order.
enum class ValueType { kInt64, kDouble, kString, kBool };

const char* ValueTypeToString(ValueType type);

/// \brief A dynamically typed scalar.
using Value = std::variant<int64_t, double, std::string, bool>;

ValueType TypeOf(const Value& v);

/// Renders a value as the HiveQL literal that parses back to it: "42",
/// "3.14", "10.0", "'it''s'", "true". A double gets the shortest digits that
/// read back as the same double, in plain notation with a decimal point.
std::string ValueToString(const Value& v);

/// Numeric coercion; errors on strings/bools.
Result<double> ToDouble(const Value& v);

/// Three-way comparison with numeric coercion between int64 and double.
/// Strings compare with strings only; bools with bools only.
Result<int> CompareValues(const Value& a, const Value& b);

/// \brief A materialized row: one Value per schema column.
using Tuple = std::vector<Value>;

/// \brief Column descriptors for a relation.
class Schema {
 public:
  struct Column {
    std::string name;
    ValueType type;
  };

  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  /// Case-insensitive lookup; returns -1 when absent.
  int FindColumn(std::string_view name) const;

  const Column& column(int index) const { return columns_[index]; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const std::vector<Column>& columns() const { return columns_; }

 private:
  std::vector<Column> columns_;
};

}  // namespace dmr::expr

#endif  // DMR_EXPR_VALUE_H_
