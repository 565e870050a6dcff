#include "expr/expression.h"

namespace dmr::expr {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

Result<Value> ColumnRefExpr::Evaluate(const Schema& schema,
                                      const Tuple& row) const {
  int index = schema.FindColumn(name_);
  if (index < 0) {
    return Status::NotFound("unknown column '" + name_ + "'");
  }
  if (static_cast<size_t>(index) >= row.size()) {
    return Status::Internal("row is narrower than schema");
  }
  return row[index];
}

namespace {

Result<bool> AsBool(const Value& v) {
  if (TypeOf(v) != ValueType::kBool) {
    return Status::InvalidArgument("expected BOOL, got " +
                                   std::string(ValueTypeToString(TypeOf(v))));
  }
  return std::get<bool>(v);
}

}  // namespace

Result<Value> BinaryExpr::Evaluate(const Schema& schema,
                                   const Tuple& row) const {
  // Logical operators get short-circuit evaluation.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    DMR_ASSIGN_OR_RETURN(Value lv, left_->Evaluate(schema, row));
    DMR_ASSIGN_OR_RETURN(bool lb, AsBool(lv));
    if (op_ == BinaryOp::kAnd && !lb) return Value(false);
    if (op_ == BinaryOp::kOr && lb) return Value(true);
    DMR_ASSIGN_OR_RETURN(Value rv, right_->Evaluate(schema, row));
    DMR_ASSIGN_OR_RETURN(bool rb, AsBool(rv));
    return Value(rb);
  }

  DMR_ASSIGN_OR_RETURN(Value lv, left_->Evaluate(schema, row));
  DMR_ASSIGN_OR_RETURN(Value rv, right_->Evaluate(schema, row));

  switch (op_) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      DMR_ASSIGN_OR_RETURN(int c, CompareValues(lv, rv));
      switch (op_) {
        case BinaryOp::kEq:
          return Value(c == 0);
        case BinaryOp::kNe:
          return Value(c != 0);
        case BinaryOp::kLt:
          return Value(c < 0);
        case BinaryOp::kLe:
          return Value(c <= 0);
        case BinaryOp::kGt:
          return Value(c > 0);
        default:
          return Value(c >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      // Integer arithmetic stays integral except for division.
      if (TypeOf(lv) == ValueType::kInt64 && TypeOf(rv) == ValueType::kInt64 &&
          op_ != BinaryOp::kDiv) {
        int64_t x = std::get<int64_t>(lv);
        int64_t y = std::get<int64_t>(rv);
        switch (op_) {
          case BinaryOp::kAdd:
            return Value(x + y);
          case BinaryOp::kSub:
            return Value(x - y);
          default:
            return Value(x * y);
        }
      }
      DMR_ASSIGN_OR_RETURN(double x, ToDouble(lv));
      DMR_ASSIGN_OR_RETURN(double y, ToDouble(rv));
      switch (op_) {
        case BinaryOp::kAdd:
          return Value(x + y);
        case BinaryOp::kSub:
          return Value(x - y);
        case BinaryOp::kMul:
          return Value(x * y);
        default:
          if (y == 0.0) return Status::InvalidArgument("division by zero");
          return Value(x / y);
      }
    }
    default:
      return Status::Internal("unreachable binary op");
  }
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpToString(op_) + " " +
         right_->ToString() + ")";
}

Result<Value> NotExpr::Evaluate(const Schema& schema, const Tuple& row) const {
  DMR_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(schema, row));
  DMR_ASSIGN_OR_RETURN(bool b, AsBool(v));
  return Value(!b);
}

Result<Value> NegateExpr::Evaluate(const Schema& schema,
                                   const Tuple& row) const {
  DMR_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(schema, row));
  if (TypeOf(v) == ValueType::kInt64) return Value(-std::get<int64_t>(v));
  DMR_ASSIGN_OR_RETURN(double d, ToDouble(v));
  return Value(-d);
}

Result<Value> BetweenExpr::Evaluate(const Schema& schema,
                                    const Tuple& row) const {
  DMR_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(schema, row));
  DMR_ASSIGN_OR_RETURN(Value lo, low_->Evaluate(schema, row));
  DMR_ASSIGN_OR_RETURN(Value hi, high_->Evaluate(schema, row));
  DMR_ASSIGN_OR_RETURN(int c1, CompareValues(v, lo));
  if (c1 < 0) return Value(false);
  DMR_ASSIGN_OR_RETURN(int c2, CompareValues(v, hi));
  return Value(c2 <= 0);
}

std::string BetweenExpr::ToString() const {
  return "(" + operand_->ToString() + " BETWEEN " + low_->ToString() +
         " AND " + high_->ToString() + ")";
}

Result<Value> InExpr::Evaluate(const Schema& schema, const Tuple& row) const {
  DMR_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(schema, row));
  for (const auto& cand : candidates_) {
    DMR_ASSIGN_OR_RETURN(Value cv, cand->Evaluate(schema, row));
    DMR_ASSIGN_OR_RETURN(int c, CompareValues(v, cv));
    if (c == 0) return Value(true);
  }
  return Value(false);
}

std::string InExpr::ToString() const {
  std::string out = "(" + operand_->ToString() + " IN (";
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (i) out += ", ";
    out += candidates_[i]->ToString();
  }
  return out + "))";
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> LikeExpr::Evaluate(const Schema& schema,
                                 const Tuple& row) const {
  DMR_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(schema, row));
  if (TypeOf(v) != ValueType::kString) {
    return Status::InvalidArgument("LIKE requires a string operand");
  }
  bool m = LikeMatch(std::get<std::string>(v), pattern_);
  return Value(negated_ ? !m : m);
}

std::string LikeExpr::ToString() const {
  return "(" + operand_->ToString() + (negated_ ? " NOT LIKE " : " LIKE ") +
         ValueToString(Value(pattern_)) + ")";
}

Result<bool> EvaluatePredicate(const Expression& expr, const Schema& schema,
                               const Tuple& row) {
  DMR_ASSIGN_OR_RETURN(Value v, expr.Evaluate(schema, row));
  if (TypeOf(v) != ValueType::kBool) {
    return Status::InvalidArgument("predicate did not evaluate to BOOL");
  }
  return std::get<bool>(v);
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r));
}

}  // namespace dmr::expr
