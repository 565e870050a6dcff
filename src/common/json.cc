#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dmr::json {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_value : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value : fallback;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void AppendJsonNumber(std::string* out, double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf, static_cast<size_t>(n));
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    DMR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    JsonValue value;
    char c = text_[pos_];
    switch (c) {
      case '{': {
        DMR_ASSIGN_OR_RETURN(value, ParseObject());
        break;
      }
      case '[': {
        DMR_ASSIGN_OR_RETURN(value, ParseArray());
        break;
      }
      case '"': {
        value.kind = JsonValue::Kind::kString;
        DMR_ASSIGN_OR_RETURN(value.string_value, ParseString());
        break;
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = true;
        break;
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = false;
        break;
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        value.kind = JsonValue::Kind::kNull;
        break;
      default: {
        DMR_ASSIGN_OR_RETURN(value.number_value, ParseNumber());
        value.kind = JsonValue::Kind::kNumber;
        break;
      }
    }
    --depth_;
    return value;
  }

  Result<JsonValue> ParseObject() {
    JsonValue obj;
    obj.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      DMR_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      DMR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      obj.members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    JsonValue arr;
    arr.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      DMR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      arr.items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return Error("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode (surrogate pairs are passed through as-is; the
          // emitters only escape control characters, never astral planes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<double> ParseNumber() {
    size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return value;
  }

  static constexpr int kMaxDepth = 128;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> JsonParse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace dmr::json
