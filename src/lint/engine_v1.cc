// The PR 5 line-scanning engine, verbatim. See engine_v1.h for why it is
// kept: tests/lint/lint_diff_test.cc holds the v2 token/scope engine to
// byte-identical verdicts on every pre-v2 fixture.
#include "lint/engine_v1.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace dmr::lint::v1 {

namespace {

/// A source file after lexical preprocessing (v1: three aligned line
/// vectors plus the single-line suppression map).
struct FileText {
  std::vector<std::string> raw;            ///< verbatim lines
  std::vector<std::string> code;           ///< comments + string contents blanked
  std::vector<std::string> code_strings;   ///< comments blanked, strings kept
  /// line (1-based) -> check ids allowed there, with justification text.
  std::map<int, std::map<std::string, std::string>> allows;
};

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

/// Strips comments (and optionally string/char literal contents) by
/// blanking them with spaces. A small hand-rolled scanner: tracks block
/// comments across lines, understands escapes inside literals, and knows
/// enough about raw strings R"delim(...)delim" not to get stuck in one.
std::vector<std::string> StripLines(const std::vector<std::string>& raw,
                                    bool keep_strings) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_terminator;  // e.g. )delim"
  for (const std::string& line : raw) {
    std::string stripped = line;
    size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          stripped[i] = stripped[i + 1] = ' ';
          in_block_comment = false;
          i += 2;
        } else {
          stripped[i] = ' ';
          ++i;
        }
        continue;
      }
      if (in_raw_string) {
        size_t end = line.find(raw_terminator, i);
        size_t stop = end == std::string::npos ? line.size()
                                               : end + raw_terminator.size();
        for (size_t j = i; j < stop; ++j) {
          if (!keep_strings) stripped[j] = ' ';
        }
        if (end != std::string::npos) in_raw_string = false;
        i = stop;
        continue;
      }
      char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        for (size_t j = i; j < line.size(); ++j) stripped[j] = ' ';
        break;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        stripped[i] = stripped[i + 1] = ' ';
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"') {
        size_t open = line.find('(', i + 2);
        if (open != std::string::npos) {
          raw_terminator =
              ")" + line.substr(i + 2, open - (i + 2)) + "\"";
          size_t end = line.find(raw_terminator, open + 1);
          size_t stop = end == std::string::npos
                            ? line.size()
                            : end + raw_terminator.size();
          if (!keep_strings) {
            for (size_t j = i; j < stop; ++j) stripped[j] = ' ';
          }
          if (end == std::string::npos) in_raw_string = true;
          i = stop;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        char quote = c;
        size_t j = i + 1;
        while (j < line.size()) {
          if (line[j] == '\\') {
            j += 2;
            continue;
          }
          if (line[j] == quote) break;
          ++j;
        }
        size_t stop = std::min(j + 1, line.size());
        if (!keep_strings) {
          for (size_t k = i + 1; k < stop && k < j; ++k) stripped[k] = ' ';
        }
        i = stop;
        continue;
      }
      ++i;
    }
    out.push_back(std::move(stripped));
  }
  return out;
}

bool IsBlank(const std::string& line) {
  return std::all_of(line.begin(), line.end(),
                     [](unsigned char c) { return std::isspace(c); });
}

/// Parses `// dmr-lint: allow(check-a, check-b) justification...` comments.
/// An allow covers its own line; when the line holds no code, it covers the
/// next line that does (so a suppression can sit above the flagged line).
void CollectAllows(FileText* text) {
  static const std::regex kAllow(
      R"(dmr-lint:\s*allow\(\s*([A-Za-z0-9_,\- ]+?)\s*\)\s*(.*)$)");
  for (size_t idx = 0; idx < text->raw.size(); ++idx) {
    std::smatch m;
    if (!std::regex_search(text->raw[idx], m, kAllow)) continue;
    std::string justification = m[2].str();
    int target = static_cast<int>(idx) + 1;
    if (IsBlank(text->code[idx])) {
      for (size_t next = idx + 1; next < text->raw.size(); ++next) {
        if (!IsBlank(text->code[next])) {
          target = static_cast<int>(next) + 1;
          break;
        }
      }
    }
    std::stringstream ids(m[1].str());
    std::string id;
    while (std::getline(ids, id, ',')) {
      size_t begin = id.find_first_not_of(" \t");
      size_t end = id.find_last_not_of(" \t");
      if (begin == std::string::npos) continue;
      text->allows[target][id.substr(begin, end - begin + 1)] = justification;
    }
  }
}

FileText Preprocess(const std::string& content) {
  FileText text;
  text.raw = SplitLines(content);
  text.code = StripLines(text.raw, /*keep_strings=*/false);
  text.code_strings = StripLines(text.raw, /*keep_strings=*/true);
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
      check.scan_strings ? text.code_strings : text.code;
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

/// Collects names declared with an unordered container type anywhere in the
/// file: `std::unordered_map<K, V> name` (members, locals, params alike).
std::set<std::string> UnorderedNames(const std::vector<std::string>& lines) {
  std::set<std::string> names;
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
      if (std::regex_search(rest, m, kName)) names.insert(m[1].str());
    }
  }
  return names;
}

void RunUnorderedOutput(const CheckDef& check, const std::string& path,
                        const FileText& text,
                        std::vector<Finding>* findings) {
  std::set<std::string> names = UnorderedNames(text.code);
  if (names.empty()) return;
  std::regex emit(check.patterns.empty() ? "$^" : check.patterns[0]);
  static const std::regex kRangeFor(
      R"(\bfor\s*\([^;)]*:\s*\*?([A-Za-z_]\w*)\s*\))");
  for (size_t i = 0; i < text.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(text.code[i], m, kRangeFor)) continue;
    if (names.count(m[1].str()) == 0) continue;
    // The loop body runs from the for's opening brace to its match (or to
    // the end of a single statement). Scan it for emit patterns.
    size_t line = i;
    size_t pos = static_cast<size_t>(m.position()) + m.length();
    size_t body_end = line;
    while (line < text.code.size()) {
      const std::string& s = text.code[line];
      size_t brace = s.find('{', pos);
      size_t semi = s.find(';', pos);
      if (brace != std::string::npos &&
          (semi == std::string::npos || brace < semi)) {
        size_t end_line = line, end_pos = brace;
        if (SkipBalanced(text.code, &end_line, &end_pos, '{', '}')) {
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
    for (size_t b = i; b <= body_end && b < text.code.size(); ++b) {
      if (std::regex_search(text.code_strings[b], emit)) {
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
  for (size_t i = 0; i < text.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(text.code[i], m, kMacro)) continue;
    size_t line = i;
    size_t pos = static_cast<size_t>(m.position()) + m.length() - 1;
    size_t end_line = line, end_pos = pos;
    if (!SkipBalanced(text.code, &end_line, &end_pos, '(', ')')) continue;
    std::string arg;
    for (size_t l = line; l <= end_line; ++l) {
      size_t from = l == line ? pos + 1 : 0;
      size_t to = l == end_line ? end_pos - 1 : text.code[l].size();
      if (to > from) arg += text.code[l].substr(from, to - from);
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
  for (const char* pattern : check.patterns) {
    // A bare statement: the configured call pattern (which may pin a
    // receiver, to tell `tracker_->AddSplits` from the void-returning
    // `job->AddSplits`) with nothing before it that could consume the
    // value.
    std::regex re(std::string(R"(^\s*()") + pattern + R"()\s*\()");
    for (size_t i = 0; i < text.code.size(); ++i) {
      std::smatch m;
      if (std::regex_search(text.code[i], m, re)) {
        Emit(check, path, static_cast<int>(i) + 1, text,
             "`" + m[1].str() + "` returns Status/Result", findings);
      }
    }
  }
}

}  // namespace

std::vector<Finding> LintContentV1(const std::string& path,
                                   const std::string& content) {
  FileText text = Preprocess(content);
  std::vector<Finding> findings;
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

}  // namespace dmr::lint::v1
