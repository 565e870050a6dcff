#ifndef DMR_EXPR_EXPRESSION_H_
#define DMR_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/value.h"

namespace dmr::expr {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// \brief Operators for binary expression nodes.
enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

const char* BinaryOpToString(BinaryOp op);

/// \brief An immutable expression tree evaluated against (Schema, Tuple).
///
/// Nodes: literals, column references, unary NOT / negation, binary
/// arithmetic/comparison/logic, BETWEEN, IN (value list), LIKE
/// ('%' and '_' wildcards). This is the predicate language the mini-Hive
/// front end compiles into (hive/) and that the sampling map function
/// evaluates per record (sampling/).
class Expression {
 public:
  enum class Kind {
    kLiteral,
    kColumnRef,
    kBinary,
    kNot,
    kNegate,
    kBetween,
    kIn,
    kLike,
  };

  virtual ~Expression() = default;

  Kind kind() const { return kind_; }

  /// Evaluates against a row. Type errors surface as Status.
  virtual Result<Value> Evaluate(const Schema& schema,
                                 const Tuple& row) const = 0;

  /// Pretty-prints the tree as SQL-ish text.
  virtual std::string ToString() const = 0;

 protected:
  explicit Expression(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

class LiteralExpr : public Expression {
 public:
  explicit LiteralExpr(Value value)
      : Expression(Kind::kLiteral), value_(std::move(value)) {}
  Result<Value> Evaluate(const Schema&, const Tuple&) const override {
    return value_;
  }
  std::string ToString() const override { return ValueToString(value_); }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

class ColumnRefExpr : public Expression {
 public:
  explicit ColumnRefExpr(std::string name)
      : Expression(Kind::kColumnRef), name_(std::move(name)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override { return name_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class BinaryExpr : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expression(Kind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override;
  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr operand)
      : Expression(Kind::kNot), operand_(std::move(operand)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override {
    return "(NOT " + operand_->ToString() + ")";
  }
  const ExprPtr& operand() const { return operand_; }

 private:
  ExprPtr operand_;
};

class NegateExpr : public Expression {
 public:
  explicit NegateExpr(ExprPtr operand)
      : Expression(Kind::kNegate), operand_(std::move(operand)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override {
    return "-(" + operand_->ToString() + ")";
  }
  const ExprPtr& operand() const { return operand_; }

 private:
  ExprPtr operand_;
};

class BetweenExpr : public Expression {
 public:
  BetweenExpr(ExprPtr operand, ExprPtr low, ExprPtr high)
      : Expression(Kind::kBetween),
        operand_(std::move(operand)),
        low_(std::move(low)),
        high_(std::move(high)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override;
  const ExprPtr& operand() const { return operand_; }
  const ExprPtr& low() const { return low_; }
  const ExprPtr& high() const { return high_; }

 private:
  ExprPtr operand_;
  ExprPtr low_;
  ExprPtr high_;
};

class InExpr : public Expression {
 public:
  InExpr(ExprPtr operand, std::vector<ExprPtr> candidates)
      : Expression(Kind::kIn),
        operand_(std::move(operand)),
        candidates_(std::move(candidates)) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override;
  const ExprPtr& operand() const { return operand_; }
  const std::vector<ExprPtr>& candidates() const { return candidates_; }

 private:
  ExprPtr operand_;
  std::vector<ExprPtr> candidates_;
};

class LikeExpr : public Expression {
 public:
  LikeExpr(ExprPtr operand, std::string pattern, bool negated = false)
      : Expression(Kind::kLike),
        operand_(std::move(operand)),
        pattern_(std::move(pattern)),
        negated_(negated) {}
  Result<Value> Evaluate(const Schema& schema, const Tuple& row) const override;
  std::string ToString() const override;
  const ExprPtr& operand() const { return operand_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr operand_;
  std::string pattern_;
  bool negated_;
};

/// SQL LIKE matcher: '%' matches any run, '_' any single character.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Evaluates an expression expecting a boolean outcome; numeric results are
/// rejected (predicates must be boolean-typed).
Result<bool> EvaluatePredicate(const Expression& expr, const Schema& schema,
                               const Tuple& row);

/// Convenience constructors.
ExprPtr Lit(Value v);
ExprPtr Col(std::string name);
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r);

}  // namespace dmr::expr

#endif  // DMR_EXPR_EXPRESSION_H_
