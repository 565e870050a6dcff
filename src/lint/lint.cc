#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "lint/scope.h"
#include "lint/token.h"

namespace dmr::lint {

namespace {

/// A source file after the v2 front end: one lexer pass yields the token
/// stream and the two blanked line views (lint/token.h), the scope tracker
/// classifies every brace pair (lint/scope.h), and the suppression
/// collector resolves each
/// `dmr-lint: allow()` comment to the statement it covers.
struct FileText {
  TokenizedFile tok;
  ScopeTree scopes;
  /// line (1-based) -> check ids allowed there, with justification text.
  std::map<int, std::map<std::string, std::string>> allows;
  /// Lines whose allow() comment carries no justification: rejected, and
  /// reported as `lint-allow` errors.
  std::vector<int> empty_allows;
};

bool IsPunctTok(const Tok& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// First significant token whose extent covers `line` (1-based); -1 when
/// the line holds no code.
int FirstSigOnLine(const TokenizedFile& f, int line) {
  for (int k = 0; k < static_cast<int>(f.tokens.size()); ++k) {
    const Tok& t = f.tokens[k];
    if (!IsSig(t)) continue;
    if (t.line <= line && line <= t.end_line) return k;
    if (t.line > line) break;
  }
  return -1;
}

/// The significant identifier token starting at (line, col); -1 if none.
int TokenAt(const TokenizedFile& f, int line, int col) {
  for (int k = 0; k < static_cast<int>(f.tokens.size()); ++k) {
    const Tok& t = f.tokens[k];
    if (t.line == line && t.col == col && IsSig(t)) return k;
    if (t.line > line) break;
  }
  return -1;
}

bool JustificationIsEmpty(const std::string& j) {
  // A block-comment allow's trailing `*/` is comment syntax, not text.
  std::string s = j;
  if (size_t star = s.rfind("*/"); star != std::string::npos) {
    s = s.substr(0, star);
  }
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c); });
}

/// Parses `// dmr-lint: allow(check-a, check-b) justification` comments
/// from the token stream. An allow covers the statement it is attached
/// to — the statement containing its line for the trailing form, the
/// whole following statement (through an attached brace block) for the
/// line-above form — so a suppression keeps working when the flagged
/// expression wraps onto the next line. An allow without a justification
/// is rejected and recorded for the `lint-allow` report.
void CollectAllows(FileText* text) {
  static const std::regex kAllow(
      R"(dmr-lint:\s*allow\(\s*([A-Za-z0-9_,\- ]+?)\s*\)\s*(.*)$)");
  const TokenizedFile& f = text->tok;
  for (int ti = 0; ti < static_cast<int>(f.tokens.size()); ++ti) {
    const Tok& tok = f.tokens[ti];
    if (tok.kind != TokKind::kComment) continue;
    // Scan the comment line by line so multi-line block comments keep the
    // per-line allow semantics of the v1 engine.
    std::istringstream body(tok.text);
    std::string comment_line;
    for (int offset = 0; std::getline(body, comment_line); ++offset) {
      std::smatch m;
      if (!std::regex_search(comment_line, m, kAllow)) continue;
      int line = tok.line + offset;
      std::string justification = m[2].str();
      if (JustificationIsEmpty(justification)) {
        text->empty_allows.push_back(line);
        continue;
      }
      // Which statement does this allow cover?
      std::set<int> lines = {line};
      bool trailing = false;
      for (int k = 0; k < ti; ++k) {
        const Tok& before = f.tokens[k];
        if (IsSig(before) && before.line <= line && line <= before.end_line) {
          trailing = true;
          break;
        }
      }
      int anchor = trailing ? FirstSigOnLine(f, line) : NextSig(f, ti + 1);
      if (anchor >= 0) {
        StmtRange r = StatementAround(f, text->scopes, anchor);
        if (r.first >= 0) {
          for (int l = f.tokens[r.first].line; l <= f.tokens[r.last].end_line;
               ++l) {
            lines.insert(l);
          }
        }
      }
      std::stringstream ids(m[1].str());
      std::string id;
      while (std::getline(ids, id, ',')) {
        size_t begin = id.find_first_not_of(" \t");
        size_t end = id.find_last_not_of(" \t");
        if (begin == std::string::npos) continue;
        std::string trimmed = id.substr(begin, end - begin + 1);
        for (int l : lines) text->allows[l][trimmed] = justification;
      }
    }
  }
}

FileText Preprocess(const std::string& content) {
  FileText text;
  text.tok = Tokenize(content);
  text.scopes = BuildScopes(text.tok);
  CollectAllows(&text);
  return text;
}

bool PathExempt(const std::string& path, const CheckDef& check) {
  for (const char* allow : check.path_allow) {
    if (path.find(allow) != std::string::npos) return true;
  }
  return false;
}

void Emit(const CheckDef& check, const std::string& path, int line,
          const FileText& text, const std::string& detail,
          std::vector<Finding>* findings) {
  Finding f;
  f.check = check.id;
  f.severity = check.severity;
  f.file = path;
  f.line = line;
  f.message = detail.empty() ? check.message
                             : std::string(check.message) + " (" + detail +
                                   ")";
  if (auto it = text.allows.find(line); it != text.allows.end()) {
    if (auto allow = it->second.find(check.id);
        allow != it->second.end()) {
      f.suppressed = true;
      f.justification = allow->second;
    }
  }
  findings->push_back(std::move(f));
}

// --- kLineRegex -----------------------------------------------------------

void RunLineRegex(const CheckDef& check, const std::string& path,
                  const FileText& text, std::vector<Finding>* findings) {
  const std::vector<std::string>& lines =
      check.scan_strings ? text.tok.code_strings : text.tok.code;
  for (const char* pattern : check.patterns) {
    std::regex re(pattern);
    for (size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (std::regex_search(lines[i], m, re)) {
        Emit(check, path, static_cast<int>(i) + 1, text, m[0].str(),
             findings);
      }
    }
  }
}

// --- kUnorderedOutput -----------------------------------------------------

/// Advances past the matching closer for the opener at `*pos` (which must
/// point at `open`), spanning lines. Returns false on imbalance/EOF.
bool SkipBalanced(const std::vector<std::string>& lines, size_t* line,
                  size_t* pos, char open, char close) {
  int depth = 0;
  size_t l = *line, p = *pos;
  while (l < lines.size()) {
    const std::string& s = lines[l];
    while (p < s.size()) {
      if (s[p] == open) ++depth;
      if (s[p] == close) {
        --depth;
        if (depth == 0) {
          *line = l;
          *pos = p + 1;
          return true;
        }
      }
      ++p;
    }
    ++l;
    p = 0;
  }
  return false;
}

/// True when the scope a declaration lives in is the body of some
/// function or lambda (as opposed to file/namespace/class level, where
/// the name is potentially reachable from anywhere in the file).
bool LocallyScoped(const ScopeTree& t, int scope) {
  for (int s = scope; s >= 0; s = t.scopes[s].parent) {
    if (t.scopes[s].kind == ScopeKind::kFunction ||
        t.scopes[s].kind == ScopeKind::kLambda) {
      return true;
    }
  }
  return false;
}

bool IsAncestorOrSelf(const ScopeTree& t, int ancestor, int scope) {
  for (int s = scope; s >= 0; s = t.scopes[s].parent) {
    if (s == ancestor) return true;
  }
  return false;
}

/// Names declared with an unordered container type anywhere in the file,
/// with the scope each declaration lives in — so a loop in one function
/// is not flagged for iterating a like-named local of another (scope
/// awareness the v1 engine lacked).
std::map<std::string, std::vector<int>> UnorderedNameScopes(
    const FileText& text) {
  std::map<std::string, std::vector<int>> names;
  const std::vector<std::string>& lines = text.tok.code;
  static const std::regex kDecl(R"(std::unordered_(?:map|set)\s*<)");
  static const std::regex kName(R"(^[&\s]*([A-Za-z_]\w*))");
  for (size_t i = 0; i < lines.size(); ++i) {
    auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(),
                                      kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      size_t line = i;
      size_t pos = static_cast<size_t>(it->position()) + it->length() - 1;
      if (!SkipBalanced(lines, &line, &pos, '<', '>')) continue;
      std::string rest = lines[line].substr(pos);
      std::smatch m;
      if (!std::regex_search(rest, m, kName)) continue;
      int col = static_cast<int>(pos) + static_cast<int>(m.position(1));
      int tok = TokenAt(text.tok, static_cast<int>(line) + 1, col);
      int scope = tok >= 0 ? text.scopes.token_scope[tok] : 0;
      names[m[1].str()].push_back(scope);
    }
  }
  return names;
}

void RunUnorderedOutput(const CheckDef& check, const std::string& path,
                        const FileText& text,
                        std::vector<Finding>* findings) {
  std::map<std::string, std::vector<int>> names = UnorderedNameScopes(text);
  if (names.empty()) return;
  const std::vector<std::string>& code = text.tok.code;
  std::regex emit(check.patterns.empty() ? "$^" : check.patterns[0]);
  static const std::regex kRangeFor(
      R"(\bfor\s*\([^;)]*:\s*\*?([A-Za-z_]\w*)\s*\))");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code[i], m, kRangeFor)) continue;
    auto decl = names.find(m[1].str());
    if (decl == names.end()) continue;
    // Scope filter: a declaration buried in some other function's body
    // cannot be the container this loop iterates.
    int for_tok = FirstSigOnLine(text.tok, static_cast<int>(i) + 1);
    int loop_scope = for_tok >= 0 ? text.scopes.token_scope[for_tok] : 0;
    bool visible = false;
    for (int decl_scope : decl->second) {
      if (!LocallyScoped(text.scopes, decl_scope) ||
          IsAncestorOrSelf(text.scopes, decl_scope, loop_scope)) {
        visible = true;
        break;
      }
    }
    if (!visible) continue;
    // The loop body runs from the for's opening brace to its match (or to
    // the end of a single statement). Scan it for emit patterns — over the
    // string-blanked view, so an emit-looking identifier quoted inside a
    // message cannot trip the check (v1 scanned literals too).
    size_t line = i;
    size_t pos = static_cast<size_t>(m.position()) + m.length();
    size_t body_end = line;
    while (line < code.size()) {
      const std::string& s = code[line];
      size_t brace = s.find('{', pos);
      size_t semi = s.find(';', pos);
      if (brace != std::string::npos &&
          (semi == std::string::npos || brace < semi)) {
        size_t end_line = line, end_pos = brace;
        if (SkipBalanced(code, &end_line, &end_pos, '{', '}')) {
          body_end = end_line;
        }
        break;
      }
      if (semi != std::string::npos) {
        body_end = line;
        break;
      }
      ++line;
      pos = 0;
    }
    for (size_t b = i; b <= body_end && b < code.size(); ++b) {
      if (std::regex_search(code[b], emit)) {
        Emit(check, path, static_cast<int>(i) + 1, text,
             "iterates `" + m[1].str() + "`", findings);
        break;
      }
    }
  }
}

// --- kCheckSideEffect -----------------------------------------------------

void RunCheckSideEffect(const CheckDef& check, const std::string& path,
                        const FileText& text,
                        std::vector<Finding>* findings) {
  static const std::regex kMacro(R"(\bDMR_CHECK(_[A-Z]+)?\s*\()");
  // ++/--, or `=` that is not part of a comparison (the excluded preceding
  // characters kill ==, !=, <=, >= while keeping +=, -=, |= and friends).
  std::regex effect(check.patterns.empty() ? "$^" : check.patterns[0]);
  const std::vector<std::string>& code = text.tok.code;
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code[i], m, kMacro)) continue;
    size_t line = i;
    size_t pos = static_cast<size_t>(m.position()) + m.length() - 1;
    size_t end_line = line, end_pos = pos;
    if (!SkipBalanced(code, &end_line, &end_pos, '(', ')')) continue;
    std::string arg;
    for (size_t l = line; l <= end_line; ++l) {
      size_t from = l == line ? pos + 1 : 0;
      size_t to = l == end_line ? end_pos - 1 : code[l].size();
      if (to > from) arg += code[l].substr(from, to - from);
      arg += ' ';
    }
    std::smatch hit;
    if (std::regex_search(arg, hit, effect)) {
      Emit(check, path, static_cast<int>(i) + 1, text, "`" + hit[0].str() +
               "` inside a check argument", findings);
    }
  }
}

// --- kIgnoredResult -------------------------------------------------------

void RunIgnoredResult(const CheckDef& check, const std::string& path,
                      const FileText& text,
                      std::vector<Finding>* findings) {
  const std::vector<std::string>& code = text.tok.code;
  for (const char* pattern : check.patterns) {
    // A bare statement: the configured call pattern (which may pin a
    // receiver, to tell `tracker_->AddSplits` from the void-returning
    // `job->AddSplits`) with nothing before it that could consume the
    // value.
    std::regex re(std::string(R"(^\s*()") + pattern + R"()\s*\()");
    for (size_t i = 0; i < code.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(code[i], m, re)) continue;
      // Statement filter (v2): a call that opens the line but continues a
      // statement from the previous line (`auto s =` above) has its value
      // consumed — only flag true statement starts.
      int tok = FirstSigOnLine(text.tok, static_cast<int>(i) + 1);
      if (tok >= 0) {
        int prev = PrevSig(text.tok, tok - 1);
        if (prev >= 0 && !IsPunctTok(text.tok.tokens[prev], ";") &&
            !IsPunctTok(text.tok.tokens[prev], "{") &&
            !IsPunctTok(text.tok.tokens[prev], "}")) {
          continue;
        }
      }
      Emit(check, path, static_cast<int>(i) + 1, text,
           "`" + m[1].str() + "` returns Status/Result", findings);
    }
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<CheckDef>& BuiltinChecks() {
  // The determinism check table. Adding a rule = adding a row (plus a
  // fixture under tests/lint/fixtures/).
  static const std::vector<CheckDef> kChecks = {
      {
          "wall-clock",
          Severity::kError,
          CheckKind::kLineRegex,
          "host wall-clock API; host timing belongs to prof/prof.h, or to a "
          "bench driver's own allow()-justified measurement that never "
          "feeds a digest-checked output",
          {
              R"(std::chrono::(system|steady|high_resolution)_clock)",
              R"(\btime\s*\(\s*(nullptr|NULL|0|&))",
              R"(\bclock\s*\(\s*\))",
              R"(\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\()",
          },
          {"prof/prof"},
      },
      {
          "raw-host-timer",
          Severity::kWarning,
          CheckKind::kLineRegex,
          "raw monotonic-clock read outside the sanctioned seams; host "
          "timing belongs to prof/prof.h (calibrated scoped phase timers) "
          "so there is one place to audit for determinism leaks",
          {
              // Unqualified uses (typically behind `using namespace
              // std::chrono`); the fully qualified spelling is already an
              // error under wall-clock. The leading [^:] rejects the
              // `chrono::steady_clock` form that wall-clock owns.
              R"((^|[^:])\b(steady_clock|high_resolution_clock)\s*::\s*now\b)",
              R"(\busing\s+namespace\s+std::chrono\b)",
          },
          {"prof/prof"},
      },
      {
          "unseeded-rng",
          Severity::kError,
          CheckKind::kLineRegex,
          "unseeded randomness; use common/random.h Rng with an explicit "
          "seed so runs replay",
          {
              R"(\b(rand|srand)\s*\(\s*\))",
              R"(std::mt19937(_64)?\s+\w+\s*;)",
              R"(std::mt19937(_64)?\s*(\{\s*\}|\(\s*\)))",
              R"(std::random_device)",
          },
          {"common/random"},
      },
      {
          "unordered-output",
          Severity::kWarning,
          CheckKind::kUnorderedOutput,
          "iteration over an unordered container feeds formatted output; "
          "iteration order is not part of the determinism contract — sort "
          "first or use std::map",
          {R"((<<|\bprintf\b|\bsnprintf\b|Json|\bAppend\b|\bout\b\s*\+=))"},
          {},
      },
      {
          "pointer-output",
          Severity::kError,
          CheckKind::kLineRegex,
          "pointer value formatted into output; addresses differ across "
          "runs (ASLR) — print an index or id instead",
          {
              // dmr-lint: allow(pointer-output) the checker's own table
              R"(%p)",
              R"(<<\s*static_cast<\s*(const\s+)?void\s*\*)",
              R"(<<\s*\(\s*(const\s+)?void\s*\*\s*\))",
          },
          {},
          /*scan_strings=*/true,
      },
      {
          "check-side-effect",
          Severity::kError,
          CheckKind::kCheckSideEffect,
          "DMR_CHECK argument has a side effect; checks must stay "
          "removable without changing behavior",
          {R"((\+\+|--|[^=!<>]=(?!=)|(\.|->)\s*(push_back|pop_back|erase|insert|emplace|emplace_back|clear|reset|release)\s*\())"},
          {},
      },
      {
          "ignored-status",
          Severity::kWarning,
          CheckKind::kIgnoredResult,
          "discarded failure-carrying return",
          // Regexes pinning calls whose Status/Result encodes failure.
          // Receiver-qualified: Job has void methods of the same names.
          {R"(tracker_?\s*(?:\.|->)\s*(?:AddSplits|FinalizeInput))"},
          {},
      },
      {
          "arena-alloc",
          Severity::kError,
          CheckKind::kLineRegex,
          "raw heap allocation of a per-event object on the fire path; "
          "allocate through the simulation arena (sim/arena.h "
          "ArenaAllocator / std::allocate_shared) so event churn reuses "
          "pooled slabs instead of hitting the global allocator",
          {
              R"(std::make_shared<\s*MapAttempt)",
              R"(\bnew\s+((sim::)?internal::)?EventSlot\b)",
              R"(\bnew\s+MapAttempt\b)",
          },
          // The kernel and the arena itself are where raw slab/pool
          // allocation legitimately lives.
          {"sim/simulation", "sim/arena"},
      },
      {
          "zone-map-unordered",
          Severity::kError,
          CheckKind::kUnorderedOutput,
          "zone-map construction while iterating an unordered container; "
          "hash order decides the fold order and which index wins the "
          "catalog's first-wins registration, so pruning verdicts would "
          "stop replaying — iterate a sorted view or index by partition "
          "position",
          {R"(\b(BuildZoneMap|BuildPartitionIndex|FoldRowIntoZoneMap|MarkDict|ZoneMap)\b)"},
          {},
      },
  };
  return kChecks;
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content) {
  FileText text = Preprocess(content);
  std::vector<Finding> findings;
  for (int line : text.empty_allows) {
    Finding f;
    f.check = "lint-allow";
    f.severity = Severity::kError;
    f.file = path;
    f.line = line;
    f.message =
        "allow() without a justification; say in the comment why this "
        "hazard is sanctioned — unexplained suppressions rot";
    findings.push_back(std::move(f));
  }
  for (const CheckDef& check : BuiltinChecks()) {
    if (PathExempt(path, check)) continue;
    switch (check.kind) {
      case CheckKind::kLineRegex:
        RunLineRegex(check, path, text, &findings);
        break;
      case CheckKind::kUnorderedOutput:
        RunUnorderedOutput(check, path, text, &findings);
        break;
      case CheckKind::kCheckSideEffect:
        RunCheckSideEffect(check, path, text, &findings);
        break;
      case CheckKind::kIgnoredResult:
        RunIgnoredResult(check, path, text, &findings);
        break;
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return findings;
}

std::vector<Finding> LintPath(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Finding f;
    f.check = "io";
    f.severity = Severity::kError;
    f.file = path;
    f.line = 0;
    f.message = "cannot read file";
    return {std::move(f)};
  }
  std::ostringstream content;
  content << in.rdbuf();
  return LintContent(path, content.str());
}

std::vector<Finding> LintTree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::vector<Finding> file_findings = LintPath(file);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

int CountActionable(const std::vector<Finding>& findings, Severity floor) {
  int count = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed && f.severity >= floor) ++count;
  }
  return count;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  using json::JsonQuote;
  int errors = 0, warnings = 0, notes = 0, suppressed = 0;
  std::string out = "{\"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
    } else if (f.severity == Severity::kError) {
      ++errors;
    } else if (f.severity == Severity::kWarning) {
      ++warnings;
    } else {
      ++notes;
    }
    if (!first) out += ",";
    first = false;
    out += "\n  {\"check\": " + JsonQuote(f.check) +
           ", \"severity\": " + JsonQuote(SeverityName(f.severity)) +
           ", \"file\": " + JsonQuote(f.file) +
           ", \"line\": " + std::to_string(f.line) +
           ", \"message\": " + JsonQuote(f.message) +
           ", \"suppressed\": " + (f.suppressed ? "true" : "false") +
           ", \"justification\": " + JsonQuote(f.justification) + "}";
  }
  out += first ? "]" : "\n ]";
  out += ", \"counts\": {\"errors\": " + std::to_string(errors) +
         ", \"warnings\": " + std::to_string(warnings) +
         ", \"notes\": " + std::to_string(notes) +
         ", \"suppressed\": " + std::to_string(suppressed) + "}}\n";
  return out;
}

namespace {

std::map<std::pair<std::string, std::string>, int> BaselineCounts(
    const std::vector<Finding>& findings, Severity floor) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Finding& f : findings) {
    if (f.suppressed || f.severity < floor) continue;
    ++counts[{f.file, f.check}];
  }
  return counts;
}

}  // namespace

std::string BaselineToJson(const std::vector<Finding>& findings,
                           Severity floor) {
  using json::JsonQuote;
  auto counts = BaselineCounts(findings, floor);
  std::string out = "{\"floor\": ";
  out += JsonQuote(SeverityName(floor));
  out += ", \"entries\": [";
  bool first = true;
  for (const auto& [key, count] : counts) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"file\": " + JsonQuote(key.first) +
           ", \"check\": " + JsonQuote(key.second) +
           ", \"count\": " + std::to_string(count) + "}";
  }
  out += first ? "]" : "\n ]";
  out += "}\n";
  return out;
}

std::vector<std::string> CompareBaseline(
    const std::vector<Finding>& findings, Severity floor,
    const std::string& baseline_json, std::string* error) {
  std::vector<std::string> deltas;
  auto doc = json::JsonParse(baseline_json);
  if (!doc.ok()) {
    if (error) *error = doc.status().ToString();
    deltas.push_back("baseline: unparseable JSON");
    return deltas;
  }
  const json::JsonValue& root = doc.ValueOrDie();
  std::string doc_floor = root.StringOr("floor", SeverityName(floor));
  if (doc_floor != SeverityName(floor)) {
    deltas.push_back("baseline floor is '" + doc_floor +
                     "' but the linter ran at '" + SeverityName(floor) +
                     "' — regenerate with --emit-baseline");
  }
  std::map<std::pair<std::string, std::string>, int> base;
  const json::JsonValue* entries = root.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    if (error) *error = "baseline has no entries array";
    deltas.push_back("baseline: missing entries array");
    return deltas;
  }
  for (const json::JsonValue& e : entries->items) {
    std::string file = e.StringOr("file", "");
    std::string check = e.StringOr("check", "");
    int count = static_cast<int>(e.NumberOr("count", 0));
    if (file.empty() || check.empty() || count <= 0) {
      deltas.push_back("baseline: malformed entry (file/check/count)");
      continue;
    }
    base[{file, check}] += count;
  }
  auto current = BaselineCounts(findings, floor);
  // Union walk, deterministic order: new findings block, and stale
  // baseline entries block too (a baseline claiming findings that no
  // longer exist is rotten — or doctored to smuggle new ones in).
  auto bi = base.begin();
  auto ci = current.begin();
  auto report = [&deltas](const std::pair<std::string, std::string>& key,
                          int have, int recorded) {
    if (have > recorded) {
      deltas.push_back("new: " + key.first + " [" + key.second + "] " +
                       std::to_string(have) + " found, " +
                       std::to_string(recorded) + " in baseline");
    } else if (have < recorded) {
      deltas.push_back("stale: " + key.first + " [" + key.second + "] " +
                       std::to_string(have) + " found, " +
                       std::to_string(recorded) +
                       " in baseline — re-emit the baseline");
    }
  };
  while (bi != base.end() || ci != current.end()) {
    if (bi == base.end()) {
      report(ci->first, ci->second, 0);
      ++ci;
    } else if (ci == current.end()) {
      report(bi->first, 0, bi->second);
      ++bi;
    } else if (bi->first < ci->first) {
      report(bi->first, 0, bi->second);
      ++bi;
    } else if (ci->first < bi->first) {
      report(ci->first, ci->second, 0);
      ++ci;
    } else {
      report(ci->first, ci->second, bi->second);
      ++bi;
      ++ci;
    }
  }
  return deltas;
}

}  // namespace dmr::lint
