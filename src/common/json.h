#ifndef DMR_COMMON_JSON_H_
#define DMR_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dmr::json {

/// \brief A parsed JSON document node (strict-enough RFC 8259 subset).
///
/// The observability layer emits JSON by string concatenation for speed;
/// this parser exists for the *other* direction — tests and tooling that
/// read trace/metrics output back and assert on its structure. Numbers are
/// held as doubles (adequate for every value the simulator emits).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience: Find(key) as a number/string with a fallback.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key,
                       const std::string& fallback) const;
};

/// Parses a complete JSON document; trailing garbage is an error.
Result<JsonValue> JsonParse(std::string_view text);

/// Renders `s` as a double-quoted JSON string literal (escapes quotes,
/// backslashes and control characters). Shared by every JSON emitter in
/// the codebase.
std::string JsonQuote(std::string_view s);

/// Renders `value` in `%.17g` form, which round-trips every double. Shared
/// by every JSON emitter in the codebase.
std::string JsonNumber(double value);
/// Appends JsonNumber(value) to `out` without a temporary string.
void AppendJsonNumber(std::string* out, double value);

}  // namespace dmr::json

#endif  // DMR_COMMON_JSON_H_
