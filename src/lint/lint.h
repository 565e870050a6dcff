#ifndef DMR_LINT_LINT_H_
#define DMR_LINT_LINT_H_

#include <string>
#include <vector>

namespace dmr::lint {

/// \brief dmr-lint: a token-level static checker for DMR determinism
/// hazards.
///
/// The simulator's contract (DESIGN.md "Determinism contract") is that a
/// run's observable output is a pure function of its configuration and
/// seeds. That contract is easy to break from far away: one call to a host
/// clock, one iteration over an unordered container that feeds a report,
/// one pointer value formatted into a trace, and two runs of the same
/// binary stop agreeing byte-for-byte. These hazards are invisible to the
/// type system and to tests that only run once, so they are linted.
///
/// The checker is deliberately lexical, not a real C++ front end: the
/// hazards it hunts are all syntactically local, and a lexical engine
/// keeps the tool dependency-free and fast enough to run on every tier-1
/// invocation. Since v2 the engine is token/scope-aware (lint/token.h,
/// lint/scope.h): one lexer pass produces a token stream plus the blanked
/// line views the regex checks run on, and a brace-scope tracker feeds the
/// statement-scoped suppressions and the false-positive filters. The
/// remaining false-positive surface is what the suppression comment is
/// for:
///
///     legit_hazard();  // dmr-lint: allow(check-id) why this one is fine
///
/// An allow() on its own line (no code) covers the whole following
/// statement, including an attached brace block; the trailing form covers
/// the statement its line belongs to. The justification text is required —
/// an allow() without one is rejected and reported as a `lint-allow`
/// error — and every suppression keeps its justification so the JSON
/// report can audit deliberate exceptions.
///
/// Checks are rows in a data-driven table (see kChecks in lint.cc): a new
/// line-regex rule is one table entry, ~20 lines with tests.
enum class Severity : int {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};

const char* SeverityName(Severity severity);

/// One hazard sighting. `suppressed` findings are reported (and counted in
/// the JSON audit trail) but never fail the build.
struct Finding {
  std::string check;          ///< check id, e.g. "wall-clock"
  Severity severity = Severity::kWarning;
  std::string file;           ///< path as given to the linter
  int line = 0;               ///< 1-based
  std::string message;
  bool suppressed = false;
  std::string justification;  ///< trailing text of the allow() comment
};

/// How a check inspects a file.
enum class CheckKind {
  /// Scan each code line (comments stripped; string-literal contents
  /// stripped unless `scan_strings`) against every pattern.
  kLineRegex,
  /// Flag range-for loops over locally declared unordered_map/unordered_set
  /// whose body emits formatted output (JSON, streams, printf): iteration
  /// order is libstdc++-internal and not part of the determinism contract.
  kUnorderedOutput,
  /// Flag DMR_CHECK* argument lists containing side effects (++/--,
  /// assignment, mutating member calls): checks must stay removable.
  kCheckSideEffect,
  /// Flag bare-statement calls to the named functions, whose Status/Result
  /// return value encodes failure and must be consumed.
  kIgnoredResult,
};

/// One row of the check table. `patterns` holds regexes for kLineRegex and
/// function names for kIgnoredResult; the context-sensitive kinds have
/// their logic in the engine and use `patterns` as configuration (emit
/// patterns for kUnorderedOutput, mutator names for kCheckSideEffect).
struct CheckDef {
  const char* id;
  Severity severity;
  CheckKind kind;
  const char* message;
  std::vector<const char*> patterns;
  /// Path substrings exempt from this check (sanctioned seams, e.g. the
  /// prof seam for wall-clock).
  std::vector<const char*> path_allow;
  /// kLineRegex only: keep string-literal contents when matching (for
  /// hazards that live inside format strings, like "%p").
  bool scan_strings = false;
};

/// The built-in determinism check table.
const std::vector<CheckDef>& BuiltinChecks();

/// Lints one in-memory file. `path` is used for reporting and for
/// path_allow exemptions. Findings come back sorted by (line, check id).
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content);

/// Reads and lints one file on disk. I/O failures surface as a kError
/// finding with check id "io" so a vanished file cannot pass silently.
std::vector<Finding> LintPath(const std::string& path);

/// Recursively lints every C++ source under each root (.h/.hpp/.cc/.cpp),
/// visiting files in sorted order so the report is deterministic.
std::vector<Finding> LintTree(const std::vector<std::string>& roots);

/// Count of findings at or above `floor` that are not suppressed — the
/// CLI's exit-code signal.
int CountActionable(const std::vector<Finding>& findings, Severity floor);

/// Machine-readable report:
/// {"findings": [{check, severity, file, line, message, suppressed,
///   justification}...], "counts": {errors, warnings, notes, suppressed}}.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// The lint baseline: per-(file, check) counts of unsuppressed findings at
/// or above `floor`, as deterministic JSON —
/// {"floor": "...", "entries": [{"file", "check", "count"}...]}.
/// tier-1 checks src/bench/examples against configs/lint_baseline.json:
/// pre-existing findings recorded there ride along, new ones block, and a
/// stale entry (baseline counts a finding that no longer exists) also
/// blocks so the file cannot rot or be doctored upward.
std::string BaselineToJson(const std::vector<Finding>& findings,
                           Severity floor);

/// Compares findings against a baseline document. Returns human-readable
/// delta lines (empty == exact match). A malformed baseline reports
/// through `error` and returns a single delta line.
std::vector<std::string> CompareBaseline(
    const std::vector<Finding>& findings, Severity floor,
    const std::string& baseline_json, std::string* error);

}  // namespace dmr::lint

#endif  // DMR_LINT_LINT_H_
