#include "common/properties.h"

#include <cstdio>

#include "common/strings.h"

namespace dmr {

void Properties::Set(std::string_view key, std::string_view value) {
  entries_[std::string(key)] = std::string(value);
}

void Properties::SetInt(std::string_view key, int64_t value) {
  Set(key, std::to_string(value));
}

void Properties::SetDouble(std::string_view key, double value) {
  // %.17g round-trips every double through GetDouble; six fixed decimals
  // would read 1e-7 back as 0.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Set(key, buf);
}

void Properties::SetBool(std::string_view key, bool value) {
  Set(key, value ? "true" : "false");
}

bool Properties::Contains(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::string Properties::Get(std::string_view key,
                            std::string_view fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::string(fallback);
  return it->second;
}

Result<int64_t> Properties::GetInt(std::string_view key,
                                   int64_t fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  int64_t v;
  if (!ParseInt64(it->second, &v)) {
    return Status::ParseError("property '" + std::string(key) +
                              "' is not an integer: " + it->second);
  }
  return v;
}

Result<double> Properties::GetDouble(std::string_view key,
                                     double fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  double v;
  if (!ParseDouble(it->second, &v)) {
    return Status::ParseError("property '" + std::string(key) +
                              "' is not a number: " + it->second);
  }
  return v;
}

Result<bool> Properties::GetBool(std::string_view key, bool fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  if (EqualsIgnoreCase(it->second, "true") ||
      EqualsIgnoreCase(it->second, "1") ||
      EqualsIgnoreCase(it->second, "yes")) {
    return true;
  }
  if (EqualsIgnoreCase(it->second, "false") ||
      EqualsIgnoreCase(it->second, "0") ||
      EqualsIgnoreCase(it->second, "no")) {
    return false;
  }
  return Status::ParseError("property '" + std::string(key) +
                            "' is not a boolean: " + it->second);
}

bool Properties::Erase(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

Result<Properties> Properties::Parse(std::string_view text) {
  Properties props;
  size_t line_no = 0;
  for (const auto& raw_line : SplitString(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = TrimWhitespace(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 'key = value', got '" +
                                std::string(line) + "'");
    }
    std::string_view key = TrimWhitespace(line.substr(0, eq));
    std::string_view value = TrimWhitespace(line.substr(eq + 1));
    if (key.empty()) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": empty key");
    }
    props.Set(key, value);
  }
  return props;
}

std::string Properties::ToString() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    out += k;
    out += " = ";
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace dmr
