#include "expr/value.h"

#include <charconv>
#include <string_view>

#include "common/strings.h"

namespace dmr::expr {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOL";
  }
  return "?";
}

ValueType TypeOf(const Value& v) {
  switch (v.index()) {
    case 0:
      return ValueType::kInt64;
    case 1:
      return ValueType::kDouble;
    case 2:
      return ValueType::kString;
    default:
      return ValueType::kBool;
  }
}

namespace {

/// The shortest decimal that reads back as `d`, in plain notation and with a
/// decimal point, so it lexes as a double again: 0.1 -> "0.1", 10 -> "10.0",
/// 1e-08 -> "0.00000001", 1234567.5 -> "1234567.5".
std::string DoubleToString(double d) {
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), d,
                                  std::chars_format::scientific)
                        .ptr;
  // Shortest round-trip digits as [-]D[.DDD]e(+|-)XX, or inf/nan.
  const std::string_view sci(buf, static_cast<size_t>(end - buf));
  const size_t e = sci.find('e');
  if (e == std::string_view::npos) return std::string(sci);
  std::string digits;
  for (char c : sci.substr(0, e)) {
    if (c >= '0' && c <= '9') digits += c;
  }
  int exponent = 0;  // from_chars reads a '-' sign but not a '+'
  std::from_chars(sci.data() + e + (sci[e + 1] == '+' ? 2 : 1), end, exponent);
  // The point goes after digit exponent + 1: zeros in front for a negative
  // exponent, and behind so that a digit follows the point.
  size_t point = 1;
  if (exponent < 0) {
    digits.insert(0, static_cast<size_t>(-exponent), '0');
  } else {
    point += static_cast<size_t>(exponent);
  }
  if (point >= digits.size()) digits.append(point - digits.size() + 1, '0');
  digits.insert(point, 1, '.');
  return sci[0] == '-' ? "-" + digits : digits;
}

}  // namespace

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1:
      return DoubleToString(std::get<double>(v));
    case 2: {
      // SQL quoting: a quote inside the string is doubled.
      std::string out = "'";
      for (char c : std::get<std::string>(v)) {
        out += c;
        if (c == '\'') out += c;
      }
      return out + "'";
    }
    default:
      return std::get<bool>(v) ? "true" : "false";
  }
}

Result<double> ToDouble(const Value& v) {
  switch (v.index()) {
    case 0:
      return static_cast<double>(std::get<int64_t>(v));
    case 1:
      return std::get<double>(v);
    default:
      return Status::InvalidArgument("cannot coerce " +
                                     std::string(ValueTypeToString(TypeOf(v))) +
                                     " to a number");
  }
}

Result<int> CompareValues(const Value& a, const Value& b) {
  ValueType ta = TypeOf(a);
  ValueType tb = TypeOf(b);
  bool a_num = ta == ValueType::kInt64 || ta == ValueType::kDouble;
  bool b_num = tb == ValueType::kInt64 || tb == ValueType::kDouble;
  if (a_num && b_num) {
    if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
      int64_t x = std::get<int64_t>(a);
      int64_t y = std::get<int64_t>(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = *ToDouble(a);
    double y = *ToDouble(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ta == ValueType::kString && tb == ValueType::kString) {
    const auto& x = std::get<std::string>(a);
    const auto& y = std::get<std::string>(b);
    int c = x.compare(y);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (ta == ValueType::kBool && tb == ValueType::kBool) {
    bool x = std::get<bool>(a);
    bool y = std::get<bool>(b);
    return x == y ? 0 : (x ? 1 : -1);
  }
  return Status::InvalidArgument(
      std::string("type mismatch comparing ") + ValueTypeToString(ta) +
      " with " + ValueTypeToString(tb));
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::FindColumn(std::string_view name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return -1;
}

}  // namespace dmr::expr
