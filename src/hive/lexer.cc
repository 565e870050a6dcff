#include "hive/lexer.h"

#include <cctype>
#include <cmath>

#include "common/strings.h"

namespace dmr::hive {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kDecimal:
      return "decimal";
    case TokenKind::kString:
      return "string";
    case TokenKind::kOperator:
      return "operator";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

bool Token::IsKeyword(const char* kw) const {
  return kind == TokenKind::kIdent && EqualsIgnoreCase(text, kw);
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto fail = [&](const std::string& msg) {
    return Status::ParseError(msg + " at position " + std::to_string(i));
  };
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < sql.size() && (std::isalnum(static_cast<unsigned char>(
                                    sql[i])) ||
                                sql[i] == '_')) {
        ++i;
      }
      tok.kind = TokenKind::kIdent;
      tok.text = sql.substr(start, i - start);
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < sql.size() &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool has_dot = false;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '.')) {
        if (sql[i] == '.') {
          if (has_dot) return fail("number with two decimal points");
          has_dot = true;
        }
        ++i;
      }
      std::string num = sql.substr(start, i - start);
      if (has_dot) {
        tok.kind = TokenKind::kDecimal;
        if (!ParseDouble(num, &tok.decimal) || !std::isfinite(tok.decimal)) {
          return fail("malformed number '" + num + "'");
        }
      } else {
        tok.kind = TokenKind::kInteger;
        if (!ParseInt64(num, &tok.integer)) {
          return fail("malformed integer '" + num + "'");
        }
      }
    } else if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            value += '\'';  // escaped quote
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value += sql[i++];
      }
      if (!closed) return fail("unterminated string literal");
      tok.kind = TokenKind::kString;
      tok.text = std::move(value);
    } else {
      static const char* kTwoChar[] = {"!=", "<>", "<=", ">=", "=="};
      tok.kind = TokenKind::kOperator;
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (sql.compare(i, 2, op) == 0) {
          tok.text = op;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        if (std::string("=<>+-*/(),;.").find(c) == std::string::npos) {
          return fail(std::string("unexpected character '") + c + "'");
        }
        tok.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.pos = sql.size();
  tokens.push_back(end);
  return tokens;
}

}  // namespace dmr::hive
