#ifndef DMR_LINT_SCOPE_H_
#define DMR_LINT_SCOPE_H_

#include <string>
#include <vector>

#include "lint/token.h"

namespace dmr::lint {

/// \brief Brace-scope tracking and the per-file symbol table for the v2
/// engine.
///
/// BuildScopes() walks the token stream once, classifying every brace pair
/// (namespace / class / function / lambda / plain block) from the tokens
/// in its head. The result is deliberately approximate — dmr-lint is a
/// lexical tool, not a C++ front end — but brace matching plus head
/// classification is exact enough for statement-scoped suppressions and
/// the scope-aware false-positive filters, and it degrades safely: an
/// unrecognized construct becomes a plain block, never a parse failure.
enum class ScopeKind : unsigned char {
  kFile,
  kNamespace,
  kClass,     // struct/class/union/enum body
  kFunction,  // function or member-function body
  kLambda,    // lambda body
  kBlock,     // control statement, bare block, or initializer braces
};

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  int parent = -1;
  std::string name;          ///< namespace/class/function name when known
  int open_token = -1;       ///< index of the '{' (-1 for the file scope)
  int close_token = -1;      ///< index of the '}' (-1 when unbalanced)
};

struct ScopeTree {
  std::vector<Scope> scopes;       ///< [0] is the file scope
  std::vector<int> token_scope;    ///< token index -> innermost scope id
};

ScopeTree BuildScopes(const TokenizedFile& f);

/// The [first, last] token range (inclusive, significant tokens) of the
/// statement containing token `i`. A statement runs between `;`/`{`/`}`
/// boundaries; a brace block opened inside it (function body, initializer
/// list) is included through its closing brace.
struct StmtRange {
  int first = -1;
  int last = -1;
};
StmtRange StatementAround(const TokenizedFile& f, const ScopeTree& t, int i);

}  // namespace dmr::lint

#endif  // DMR_LINT_SCOPE_H_
