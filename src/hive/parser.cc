#include "hive/parser.h"

#include <algorithm>
#include <initializer_list>

#include "common/strings.h"
#include "hive/lexer.h"

namespace dmr::hive {

namespace {

using expr::BinaryOp;
using expr::ExprPtr;

/// Cap on both parenthesis nesting and expression-tree height. Real queries
/// nest a few levels; without the cap a deeply nested or very long WHERE
/// clause overflows the stack, in the parser or later in any recursive
/// walk (or destructor) of the tree it built. The rendered form of a tree
/// (SelectStatement::ToString) opens at most one parenthesis per node, so
/// it always parses again under the same cap.
constexpr int kMaxDepth = 256;

/// A parsed sub-expression with the height of its tree.
struct Sub {
  ExprPtr expr;
  int height = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    if (Peek().IsKeyword("SET")) {
      ++index_;
      DMR_ASSIGN_OR_RETURN(SetStatement set, ParseSet());
      DMR_RETURN_NOT_OK(ExpectEnd());
      return Statement(std::move(set));
    }
    if (Peek().IsKeyword("EXPLAIN")) {
      ++index_;
      DMR_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
      DMR_RETURN_NOT_OK(ExpectEnd());
      return Statement(ExplainStatement{std::move(select)});
    }
    DMR_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
    DMR_RETURN_NOT_OK(ExpectEnd());
    return Statement(std::move(select));
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  Token Take() { return tokens_[index_++]; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at position " +
                              std::to_string(Peek().pos));
  }

  Status ExpectEnd() {
    if (Peek().IsOp(";")) ++index_;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    return Status::OK();
  }

  bool TakeKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      ++index_;
      return true;
    }
    return false;
  }

  bool TakeOp(const char* op) {
    if (Peek().IsOp(op)) {
      ++index_;
      return true;
    }
    return false;
  }

  Status TooDeep() const {
    return Error("expression nests deeper than " +
                 std::to_string(kMaxDepth) + " levels");
  }

  /// Wraps a new node over children of the given heights, refusing trees
  /// taller than kMaxDepth.
  Result<Sub> Node(ExprPtr expr, std::initializer_list<int> child_heights) {
    int height = 1;
    for (int h : child_heights) height = std::max(height, h + 1);
    if (height > kMaxDepth) return TooDeep();
    return Sub{std::move(expr), height};
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::ParseError(std::string("expected ") + what +
                                ", got " + TokenKindToString(Peek().kind) +
                                " at position " + std::to_string(Peek().pos));
    }
    return Take().text;
  }

  Result<SetStatement> ParseSet() {
    // Keys may be dotted: SET dynamic.job.policy = LA
    DMR_ASSIGN_OR_RETURN(std::string key, ExpectIdent("parameter name"));
    while (TakeOp(".")) {
      DMR_ASSIGN_OR_RETURN(std::string part, ExpectIdent("parameter name"));
      key += "." + part;
    }
    if (!TakeOp("=")) return Error("expected '=' in SET");
    // Value: everything until ';' / end — identifier, number or string.
    const Token& v = Peek();
    std::string value;
    switch (v.kind) {
      case TokenKind::kIdent:
        value = Take().text;
        break;
      case TokenKind::kString:
        value = Take().text;
        break;
      case TokenKind::kInteger:
        value = std::to_string(Take().integer);
        break;
      case TokenKind::kDecimal: {
        Token tok = Take();
        value = std::to_string(tok.decimal);
        break;
      }
      default:
        return Error("expected a value in SET");
    }
    return SetStatement{std::move(key), std::move(value)};
  }

  Result<SelectStatement> ParseSelect() {
    if (!TakeKeyword("SELECT")) return Error("expected SELECT");
    SelectStatement stmt;
    if (TakeOp("*")) {
      // SELECT * — empty projection list.
    } else {
      do {
        DMR_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
        stmt.columns.push_back(std::move(col));
      } while (TakeOp(","));
    }
    if (!TakeKeyword("FROM")) return Error("expected FROM");
    DMR_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (TakeKeyword("WHERE")) {
      DMR_ASSIGN_OR_RETURN(Sub where, ParseOr());
      stmt.where = std::move(where.expr);
    }
    if (TakeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error("expected an integer after LIMIT");
      }
      int64_t k = Take().integer;
      if (k <= 0) return Error("LIMIT must be positive");
      stmt.limit = static_cast<uint64_t>(k);
    }
    return stmt;
  }

  // WHERE and every parenthesized sub-expression enter here, so this is
  // where recursion is counted. An error aborts the whole parse, so only
  // the success path unwinds depth_.
  Result<Sub> ParseOr() {
    if (++depth_ > kMaxDepth) return TooDeep();
    DMR_ASSIGN_OR_RETURN(Sub left, ParseAnd());
    while (TakeKeyword("OR")) {
      DMR_ASSIGN_OR_RETURN(Sub right, ParseAnd());
      DMR_ASSIGN_OR_RETURN(
          left, Node(expr::Bin(BinaryOp::kOr, left.expr, right.expr),
                     {left.height, right.height}));
    }
    --depth_;
    return left;
  }

  Result<Sub> ParseAnd() {
    DMR_ASSIGN_OR_RETURN(Sub left, ParseNot());
    while (TakeKeyword("AND")) {
      DMR_ASSIGN_OR_RETURN(Sub right, ParseNot());
      DMR_ASSIGN_OR_RETURN(
          left, Node(expr::Bin(BinaryOp::kAnd, left.expr, right.expr),
                     {left.height, right.height}));
    }
    return left;
  }

  // NOT and unary-minus chains loop instead of recursing; the height cap
  // bounds them.
  Result<Sub> ParseNot() {
    int nots = 0;
    while (TakeKeyword("NOT")) ++nots;
    DMR_ASSIGN_OR_RETURN(Sub operand, ParseComparison());
    for (; nots > 0; --nots) {
      DMR_ASSIGN_OR_RETURN(
          operand, Node(std::make_shared<expr::NotExpr>(operand.expr),
                        {operand.height}));
    }
    return operand;
  }

  Result<Sub> ParseComparison() {
    DMR_ASSIGN_OR_RETURN(Sub left, ParseAdditive());

    bool negated = false;
    if (Peek().IsKeyword("NOT")) {
      // NOT here can only precede BETWEEN / IN / LIKE.
      ++index_;
      negated = true;
    }

    if (TakeKeyword("BETWEEN")) {
      DMR_ASSIGN_OR_RETURN(Sub lo, ParseAdditive());
      if (!TakeKeyword("AND")) return Error("expected AND in BETWEEN");
      DMR_ASSIGN_OR_RETURN(Sub hi, ParseAdditive());
      DMR_ASSIGN_OR_RETURN(
          Sub between,
          Node(std::make_shared<expr::BetweenExpr>(left.expr, lo.expr,
                                                   hi.expr),
               {left.height, lo.height, hi.height}));
      if (!negated) return between;
      return Node(std::make_shared<expr::NotExpr>(between.expr),
                  {between.height});
    }
    if (TakeKeyword("IN")) {
      if (!TakeOp("(")) return Error("expected '(' after IN");
      std::vector<ExprPtr> candidates;
      int height = left.height;
      do {
        DMR_ASSIGN_OR_RETURN(Sub cand, ParseAdditive());
        height = std::max(height, cand.height);
        candidates.push_back(std::move(cand.expr));
      } while (TakeOp(","));
      if (!TakeOp(")")) return Error("expected ')' to close IN list");
      DMR_ASSIGN_OR_RETURN(
          Sub in, Node(std::make_shared<expr::InExpr>(left.expr,
                                                      std::move(candidates)),
                       {height}));
      if (!negated) return in;
      return Node(std::make_shared<expr::NotExpr>(in.expr), {in.height});
    }
    if (TakeKeyword("LIKE")) {
      if (Peek().kind != TokenKind::kString) {
        return Error("expected a string pattern after LIKE");
      }
      std::string pattern = Take().text;
      return Node(std::make_shared<expr::LikeExpr>(
                      left.expr, std::move(pattern), negated),
                  {left.height});
    }
    if (negated) return Error("expected BETWEEN, IN or LIKE after NOT");

    struct CmpOp {
      const char* text;
      BinaryOp op;
    };
    static const CmpOp kOps[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"!=", BinaryOp::kNe},
        {"<>", BinaryOp::kNe}, {"==", BinaryOp::kEq}, {"=", BinaryOp::kEq},
        {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& cmp : kOps) {
      if (TakeOp(cmp.text)) {
        DMR_ASSIGN_OR_RETURN(Sub right, ParseAdditive());
        return Node(expr::Bin(cmp.op, left.expr, right.expr),
                    {left.height, right.height});
      }
    }
    return left;
  }

  Result<Sub> ParseAdditive() {
    DMR_ASSIGN_OR_RETURN(Sub left, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (TakeOp("+")) {
        op = BinaryOp::kAdd;
      } else if (TakeOp("-")) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      DMR_ASSIGN_OR_RETURN(Sub right, ParseMultiplicative());
      DMR_ASSIGN_OR_RETURN(left, Node(expr::Bin(op, left.expr, right.expr),
                                      {left.height, right.height}));
    }
  }

  Result<Sub> ParseMultiplicative() {
    DMR_ASSIGN_OR_RETURN(Sub left, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (TakeOp("*")) {
        op = BinaryOp::kMul;
      } else if (TakeOp("/")) {
        op = BinaryOp::kDiv;
      } else {
        return left;
      }
      DMR_ASSIGN_OR_RETURN(Sub right, ParseUnary());
      DMR_ASSIGN_OR_RETURN(left, Node(expr::Bin(op, left.expr, right.expr),
                                      {left.height, right.height}));
    }
  }

  Result<Sub> ParseUnary() {
    int negations = 0;
    while (TakeOp("-")) ++negations;
    DMR_ASSIGN_OR_RETURN(Sub operand, ParsePrimary());
    for (; negations > 0; --negations) {
      DMR_ASSIGN_OR_RETURN(
          operand, Node(std::make_shared<expr::NegateExpr>(operand.expr),
                        {operand.height}));
    }
    return operand;
  }

  Result<Sub> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInteger:
        return Sub{expr::Lit(Take().integer)};
      case TokenKind::kDecimal:
        return Sub{expr::Lit(Take().decimal)};
      case TokenKind::kString:
        return Sub{expr::Lit(Take().text)};
      case TokenKind::kIdent: {
        if (tok.IsKeyword("TRUE")) {
          ++index_;
          return Sub{expr::Lit(true)};
        }
        if (tok.IsKeyword("FALSE")) {
          ++index_;
          return Sub{expr::Lit(false)};
        }
        // NOT is reserved: after "(" it always reads as the operator, so a
        // column named NOT would not survive rendering and re-parsing.
        if (tok.IsKeyword("NOT")) break;
        return Sub{expr::Col(Take().text)};
      }
      case TokenKind::kOperator:
        if (TakeOp("(")) {
          DMR_ASSIGN_OR_RETURN(Sub inner, ParseOr());
          if (!TakeOp(")")) return Error("expected ')'");
          return inner;
        }
        break;
      default:
        break;
    }
    return Error("expected an expression");
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;  // open ParseOr levels (WHERE and parentheses)
};

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  DMR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SelectStatement> ParseSelect(const std::string& sql) {
  DMR_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (auto* select = std::get_if<SelectStatement>(&stmt)) {
    return std::move(*select);
  }
  return Status::InvalidArgument("statement is not a SELECT");
}

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  if (columns.empty()) {
    out += "*";
  } else {
    out += JoinStrings(columns, ", ");
  }
  out += " FROM " + table;
  if (where) out += " WHERE " + where->ToString();
  if (limit) out += " LIMIT " + std::to_string(*limit);
  return out;
}

}  // namespace dmr::hive
