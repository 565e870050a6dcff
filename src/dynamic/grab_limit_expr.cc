#include "dynamic/grab_limit_expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <vector>

#include "common/strings.h"

namespace dmr::dynamic {

/// Expression tree node: a small closure-based interpreter. `height` is
/// the length of the longest path down to a leaf, which the parser caps.
class GrabLimitExpr::Node {
 public:
  using EvalFn = std::function<double(const SlotVars&)>;
  Node(EvalFn fn, int height) : fn_(std::move(fn)), height_(height) {}
  double Eval(const SlotVars& vars) const { return fn_(vars); }
  int height() const { return height_; }

 private:
  EvalFn fn_;
  int height_;
};

namespace {

using NodePtr = std::shared_ptr<const GrabLimitExpr::Node>;

/// Cap on both parser recursion and tree height. Real policies nest a few
/// levels; without the cap a policy file of nested parentheses or a long
/// flat sum overflows the stack, in the parser or later in the recursive
/// evaluation (or destruction) of the tree it built.
constexpr int kMaxDepth = 256;

struct Token {
  enum class Kind {
    kNumber,
    kIdent,
    kOp,  // one of: ? : , ( ) + - * / < <= > >= == !=
    kEnd,
  };
  Kind kind = Kind::kEnd;
  double number = 0.0;
  std::string text;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < input_.size()) {
      char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token tok;
      tok.pos = i;
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
        size_t start = i;
        while (i < input_.size() &&
               (std::isdigit(static_cast<unsigned char>(input_[i])) ||
                input_[i] == '.')) {
          ++i;
        }
        std::string num = input_.substr(start, i - start);
        double value;
        if (!ParseDouble(num, &value)) {
          return Status::ParseError("bad number '" + num + "' at position " +
                                    std::to_string(start));
        }
        tok.kind = Token::Kind::kNumber;
        tok.number = value;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[i])) ||
                input_[i] == '_')) {
          ++i;
        }
        tok.kind = Token::Kind::kIdent;
        tok.text = input_.substr(start, i - start);
      } else {
        static const char* kTwoChar[] = {"<=", ">=", "==", "!="};
        tok.kind = Token::Kind::kOp;
        bool matched = false;
        for (const char* op : kTwoChar) {
          if (input_.compare(i, 2, op) == 0) {
            tok.text = op;
            i += 2;
            matched = true;
            break;
          }
        }
        if (!matched) {
          if (std::string("?:,()+-*/<>").find(c) == std::string::npos) {
            return Status::ParseError(std::string("unexpected character '") +
                                      c + "' at position " +
                                      std::to_string(i));
          }
          tok.text = std::string(1, c);
          ++i;
        }
      }
      tokens.push_back(std::move(tok));
    }
    Token end;
    end.kind = Token::Kind::kEnd;
    end.pos = input_.size();
    tokens.push_back(end);
    return tokens;
  }

 private:
  const std::string& input_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<NodePtr> Parse() {
    DMR_ASSIGN_OR_RETURN(NodePtr root, ParseTernary());
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::ParseError("trailing input at position " +
                                std::to_string(Peek().pos));
    }
    return root;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  Token Take() { return tokens_[index_++]; }

  Status TooDeep() const {
    return Status::ParseError("expression nests deeper than " +
                              std::to_string(kMaxDepth) +
                              " levels at position " +
                              std::to_string(Peek().pos));
  }

  /// Builds a node over `children`, refusing trees taller than kMaxDepth.
  Result<NodePtr> MakeNode(GrabLimitExpr::Node::EvalFn fn,
                           std::initializer_list<NodePtr> children = {}) {
    int height = 1;
    for (const NodePtr& child : children) {
      height = std::max(height, child->height() + 1);
    }
    if (height > kMaxDepth) return TooDeep();
    return std::make_shared<const GrabLimitExpr::Node>(std::move(fn), height);
  }

  bool TakeOp(const char* op) {
    if (Peek().kind == Token::Kind::kOp && Peek().text == op) {
      ++index_;
      return true;
    }
    return false;
  }

  // Every nested sub-expression (parentheses, ternary branches, max/min
  // arguments) re-enters here, so this is where recursion is counted. An
  // error aborts the whole parse, so only the success path unwinds depth_.
  Result<NodePtr> ParseTernary() {
    if (++depth_ > kMaxDepth) return TooDeep();
    DMR_ASSIGN_OR_RETURN(NodePtr node, ParseOr());
    if (TakeOp("?")) {
      NodePtr cond = node;
      DMR_ASSIGN_OR_RETURN(NodePtr then_node, ParseTernary());
      if (!TakeOp(":")) {
        return Status::ParseError("expected ':' at position " +
                                  std::to_string(Peek().pos));
      }
      DMR_ASSIGN_OR_RETURN(NodePtr else_node, ParseTernary());
      DMR_ASSIGN_OR_RETURN(
          node, MakeNode(
                    [cond, then_node, else_node](const SlotVars& v) {
                      return cond->Eval(v) != 0.0 ? then_node->Eval(v)
                                                  : else_node->Eval(v);
                    },
                    {cond, then_node, else_node}));
    }
    --depth_;
    return node;
  }

  Result<NodePtr> ParseOr() {
    DMR_ASSIGN_OR_RETURN(NodePtr left, ParseAnd());
    while (PeekKeyword("or")) {
      ++index_;
      DMR_ASSIGN_OR_RETURN(NodePtr right, ParseAnd());
      NodePtr prev = left;
      DMR_ASSIGN_OR_RETURN(
          left, MakeNode(
                    [prev, right](const SlotVars& v) {
                      return (prev->Eval(v) != 0.0 || right->Eval(v) != 0.0)
                                 ? 1.0
                                 : 0.0;
                    },
                    {prev, right}));
    }
    return left;
  }

  Result<NodePtr> ParseAnd() {
    DMR_ASSIGN_OR_RETURN(NodePtr left, ParseCmp());
    while (PeekKeyword("and")) {
      ++index_;
      DMR_ASSIGN_OR_RETURN(NodePtr right, ParseCmp());
      NodePtr prev = left;
      DMR_ASSIGN_OR_RETURN(
          left, MakeNode(
                    [prev, right](const SlotVars& v) {
                      return (prev->Eval(v) != 0.0 && right->Eval(v) != 0.0)
                                 ? 1.0
                                 : 0.0;
                    },
                    {prev, right}));
    }
    return left;
  }

  bool PeekKeyword(const char* kw) const {
    return Peek().kind == Token::Kind::kIdent &&
           EqualsIgnoreCase(Peek().text, kw);
  }

  Result<NodePtr> ParseCmp() {
    DMR_ASSIGN_OR_RETURN(NodePtr left, ParseAdd());
    static const char* kCmps[] = {"<=", ">=", "==", "!=", "<", ">"};
    for (const char* op : kCmps) {
      if (TakeOp(op)) {
        DMR_ASSIGN_OR_RETURN(NodePtr right, ParseAdd());
        std::string o = op;
        NodePtr prev = left;
        return MakeNode(
            [prev, right, o](const SlotVars& v) {
              double a = prev->Eval(v);
              double b = right->Eval(v);
              bool r = o == "<"    ? a < b
                       : o == "<=" ? a <= b
                       : o == ">"  ? a > b
                       : o == ">=" ? a >= b
                       : o == "==" ? a == b
                                    : a != b;
              return r ? 1.0 : 0.0;
            },
            {prev, right});
      }
    }
    return left;
  }

  Result<NodePtr> ParseAdd() {
    DMR_ASSIGN_OR_RETURN(NodePtr left, ParseMul());
    for (;;) {
      bool plus = false;
      if (TakeOp("+")) {
        plus = true;
      } else if (!TakeOp("-")) {
        return left;
      }
      DMR_ASSIGN_OR_RETURN(NodePtr right, ParseMul());
      NodePtr prev = left;
      DMR_ASSIGN_OR_RETURN(
          left, MakeNode(
                    [prev, right, plus](const SlotVars& v) {
                      return plus ? prev->Eval(v) + right->Eval(v)
                                  : prev->Eval(v) - right->Eval(v);
                    },
                    {prev, right}));
    }
  }

  Result<NodePtr> ParseMul() {
    DMR_ASSIGN_OR_RETURN(NodePtr left, ParseUnary());
    for (;;) {
      bool mul = false;
      if (TakeOp("*")) {
        mul = true;
      } else if (!TakeOp("/")) {
        return left;
      }
      DMR_ASSIGN_OR_RETURN(NodePtr right, ParseUnary());
      NodePtr prev = left;
      DMR_ASSIGN_OR_RETURN(
          left, MakeNode(
                    [prev, right, mul](const SlotVars& v) {
                      double b = right->Eval(v);
                      if (mul) return prev->Eval(v) * b;
                      return b == 0.0
                                 ? std::numeric_limits<double>::infinity()
                                 : prev->Eval(v) / b;
                    },
                    {prev, right}));
    }
  }

  Result<NodePtr> ParseUnary() {
    if (TakeOp("-")) {
      if (++depth_ > kMaxDepth) return TooDeep();
      DMR_ASSIGN_OR_RETURN(NodePtr operand, ParseUnary());
      --depth_;
      return MakeNode(
          [operand](const SlotVars& v) { return -operand->Eval(v); },
          {operand});
    }
    return ParsePrimary();
  }

  Result<NodePtr> ParsePrimary() {
    const Token& tok = Peek();
    if (tok.kind == Token::Kind::kNumber) {
      double value = Take().number;
      return MakeNode([value](const SlotVars&) { return value; });
    }
    if (tok.kind == Token::Kind::kIdent) {
      std::string name = Take().text;
      if (EqualsIgnoreCase(name, "AS")) {
        return MakeNode(
            [](const SlotVars& v) { return v.available_slots; });
      }
      if (EqualsIgnoreCase(name, "TS")) {
        return MakeNode([](const SlotVars& v) { return v.total_slots; });
      }
      if (EqualsIgnoreCase(name, "INF") ||
          EqualsIgnoreCase(name, "INFINITY")) {
        return MakeNode([](const SlotVars&) {
          return std::numeric_limits<double>::infinity();
        });
      }
      if (EqualsIgnoreCase(name, "max") || EqualsIgnoreCase(name, "min")) {
        bool is_max = EqualsIgnoreCase(name, "max");
        if (!TakeOp("(")) {
          return Status::ParseError("expected '(' after " + name);
        }
        DMR_ASSIGN_OR_RETURN(NodePtr a, ParseTernary());
        if (!TakeOp(",")) {
          return Status::ParseError("expected ',' in " + name + "()");
        }
        DMR_ASSIGN_OR_RETURN(NodePtr b, ParseTernary());
        if (!TakeOp(")")) {
          return Status::ParseError("expected ')' to close " + name + "()");
        }
        return MakeNode(
            [a, b, is_max](const SlotVars& v) {
              double x = a->Eval(v);
              double y = b->Eval(v);
              return is_max ? std::max(x, y) : std::min(x, y);
            },
            {a, b});
      }
      return Status::ParseError("unknown identifier '" + name +
                                "' (expected AS, TS, INF, max, min)");
    }
    if (TakeOp("(")) {
      DMR_ASSIGN_OR_RETURN(NodePtr inner, ParseTernary());
      if (!TakeOp(")")) {
        return Status::ParseError("expected ')' at position " +
                                  std::to_string(Peek().pos));
      }
      return inner;
    }
    return Status::ParseError("unexpected token at position " +
                              std::to_string(tok.pos));
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;  // open ParseTernary/unary-minus levels
};

}  // namespace

Result<GrabLimitExpr> GrabLimitExpr::Parse(const std::string& text) {
  Lexer lexer(text);
  DMR_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  DMR_ASSIGN_OR_RETURN(NodePtr root, parser.Parse());
  return GrabLimitExpr(text, std::move(root));
}

double GrabLimitExpr::Evaluate(const SlotVars& vars) const {
  return root_->Eval(vars);
}

}  // namespace dmr::dynamic
