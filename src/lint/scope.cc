#include "lint/scope.h"

namespace dmr::lint {

namespace {

bool IsPunct(const Tok& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Tok& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsBoundary(const Tok& t) {
  return t.kind == TokKind::kPunct &&
         (t.text == ";" || t.text == "{" || t.text == "}");
}

/// Index of the matching '(' for the ')' at `close`, or -1.
int MatchParenBack(const TokenizedFile& f, int close) {
  int depth = 0;
  for (int k = close; k >= 0; k = PrevSig(f, k - 1)) {
    const Tok& t = f.tokens[k];
    if (IsPunct(t, ")")) ++depth;
    if (IsPunct(t, "(")) {
      if (--depth == 0) return k;
    }
  }
  return -1;
}

struct Classified {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;
};

/// Classifies the brace whose head ends in `...)`: a function body, a
/// lambda body, or a control-statement block.
Classified ClassifyAfterParen(const TokenizedFile& f, int close) {
  Classified c;
  int open = MatchParenBack(f, close);
  if (open < 0) return c;
  int b = PrevSig(f, open - 1);
  if (b < 0) return c;
  const Tok& t = f.tokens[b];
  if (t.kind == TokKind::kIdent) {
    if (t.text == "if" || t.text == "for" || t.text == "while" ||
        t.text == "switch" || t.text == "catch") {
      return c;  // control statement
    }
    c.kind = ScopeKind::kFunction;
    c.name = t.text;
    return c;
  }
  if (IsPunct(t, "]")) {
    c.kind = ScopeKind::kLambda;
    return c;
  }
  // `operator<<(...)` and friends: symbol preceded by the operator keyword.
  if (t.kind == TokKind::kPunct) {
    int before = PrevSig(f, b - 1);
    if (before >= 0 && IsIdent(f.tokens[before], "operator")) {
      c.kind = ScopeKind::kFunction;
      c.name = "operator" + t.text;
      return c;
    }
  }
  return c;
}

/// Name of a struct/class/enum: the first identifier after the keyword
/// that is not a specifier.
std::string ClassName(const TokenizedFile& f, int keyword, int brace) {
  for (int k = NextSig(f, keyword + 1); k >= 0 && k < brace;
       k = NextSig(f, k + 1)) {
    const Tok& t = f.tokens[k];
    if (IsPunct(t, ":") || IsPunct(t, "{")) break;
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "final" ||
        t.text == "alignas") {
      continue;
    }
    return t.text;
  }
  return "";
}

/// Classifies the brace at token `i` from the tokens in its head.
Classified Classify(const TokenizedFile& f, int i) {
  Classified c;
  int p = PrevSig(f, i - 1);
  if (p < 0) return c;
  const Tok& tp = f.tokens[p];
  if (tp.kind == TokKind::kPunct) {
    if (tp.text == ")") return ClassifyAfterParen(f, p);
    if (tp.text == "]") {
      c.kind = ScopeKind::kLambda;
      return c;
    }
    return c;  // =, {, (, comma, ...: initializer or bare block
  }
  // The head ends in identifiers (trailing specifiers, type names). Walk it
  // backwards looking for the defining construct.
  for (int j = p; j >= 0; j = PrevSig(f, j - 1)) {
    const Tok& t = f.tokens[j];
    if (t.kind == TokKind::kPunct) {
      if (IsBoundary(t)) break;
      if (t.text == ")") return ClassifyAfterParen(f, j);
      if (t.text == "]") {
        c.kind = ScopeKind::kLambda;
        return c;
      }
      if (t.text == "=") break;  // `using X = decltype{...}`-ish: block
      continue;                  // ::, <, >, *, &, ->, commas, ...
    }
    if (t.kind == TokKind::kIdent) {
      if (t.text == "namespace") {
        c.kind = ScopeKind::kNamespace;
        c.name = ClassName(f, j, i);
        return c;
      }
      if (t.text == "struct" || t.text == "class" || t.text == "union" ||
          t.text == "enum") {
        c.kind = ScopeKind::kClass;
        c.name = ClassName(f, j, i);
        return c;
      }
      if (t.text == "do" || t.text == "else" || t.text == "try") return c;
    }
  }
  return c;
}

}  // namespace

ScopeTree BuildScopes(const TokenizedFile& f) {
  ScopeTree tree;
  tree.scopes.push_back(Scope{ScopeKind::kFile, -1, "", -1, -1});
  tree.token_scope.assign(f.tokens.size(), 0);
  std::vector<int> stack = {0};
  const int n = static_cast<int>(f.tokens.size());
  for (int i = 0; i < n; ++i) {
    const Tok& t = f.tokens[i];
    if (!IsSig(t)) {
      tree.token_scope[i] = stack.back();
      continue;
    }
    if (IsPunct(t, "{")) {
      Classified c = Classify(f, i);
      Scope s;
      s.kind = c.kind;
      s.name = std::move(c.name);
      s.parent = stack.back();
      s.open_token = i;
      int id = static_cast<int>(tree.scopes.size());
      tree.scopes.push_back(std::move(s));
      tree.token_scope[i] = id;
      stack.push_back(id);
      continue;
    }
    if (IsPunct(t, "}")) {
      tree.token_scope[i] = stack.back();
      if (stack.size() > 1) {
        tree.scopes[stack.back()].close_token = i;
        stack.pop_back();
      }
      continue;
    }
    tree.token_scope[i] = stack.back();
  }
  return tree;
}

StmtRange StatementAround(const TokenizedFile& f, const ScopeTree& t,
                          int i) {
  StmtRange r;
  const int n = static_cast<int>(f.tokens.size());
  if (i < 0 || i >= n) return r;
  int first = i;
  for (int p = PrevSig(f, first - 1); p >= 0; p = PrevSig(f, p - 1)) {
    if (IsBoundary(f.tokens[p])) break;
    first = p;
  }
  r.first = first;
  int last = first;
  int depth = 0;
  for (int k = first; k >= 0; k = NextSig(f, k + 1)) {
    const Tok& tok = f.tokens[k];
    last = k;
    if (tok.kind != TokKind::kPunct) continue;
    if (tok.text == "(" || tok.text == "[") ++depth;
    if (tok.text == ")" || tok.text == "]") {
      if (--depth < 0) {  // left the enclosing expression
        int p = PrevSig(f, k - 1);
        last = p >= 0 && p >= first ? p : k;
        break;
      }
    }
    if (depth != 0) continue;
    if (tok.text == ";") break;  // last == k
    if (tok.text == "{") {
      int close = t.token_scope[k] >= 0
                      ? t.scopes[t.token_scope[k]].close_token
                      : -1;
      if (close < 0) {
        last = n - 1;
        break;
      }
      // Include a directly attached `;` (type definitions, do-while).
      int after = NextSig(f, close + 1);
      last = (after >= 0 && IsPunct(f.tokens[after], ";")) ? after : close;
      break;
    }
    if (tok.text == "}") {  // end of the enclosing block
      int p = PrevSig(f, k - 1);
      last = p >= 0 && p >= first ? p : k;
      break;
    }
  }
  r.last = last;
  return r;
}

}  // namespace dmr::lint
