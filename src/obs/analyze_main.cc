// dmr-analyze: cross-run analysis and validation of the bench drivers'
// observability documents. Every input becomes a keyed-metric table
// (obs/analysis.h), and one path renders, emits and checks it.
//
//   dmr-analyze [timeline|profile] [flags] doc.json [doc2.json ...]
//     Reads --metrics reports (ledger + critical path), --timeline
//     documents, or the "prof" section of --profile runs' metrics.
//     --markdown[=FILE] view (default), --baseline=FILE check (exit 1 on
//     regression), --emit-baseline=FILE with --rel-tolerance=X; profile
//     only: --top=N table rows, --collapsed=FILE re-emits the first run's
//     collapsed stacks byte-identical to the driver's file.
//   dmr-analyze validate TRACE.json METRICS.json [TIMELINE.json]
//     Checks one run's documents against each other and their writers'
//     invariants (exit 1 on a violation).
//
// Exit 2 on usage errors and unreadable input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/analysis.h"

namespace {

namespace analysis = dmr::obs::analysis;
using analysis::Kind;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [timeline|profile] [--markdown[=FILE]] "
               "[--baseline=FILE] [--emit-baseline=FILE] [--rel-tolerance=X] "
               "[--top=N] [--collapsed=FILE] doc.json [doc2.json ...]\n"
               "       %s validate TRACE.json METRICS.json [TIMELINE.json]\n",
               argv0, argv0);
  std::exit(2);
}

void DieOn(const dmr::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "dmr-analyze: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

void WriteFile(const std::string& path, const std::string& text,
               const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) DieOn(dmr::Status::IoError("cannot write " + path), path);
  std::printf("%s written to %s\n", what, path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Kind kind = Kind::kReport;
  bool validate = false;
  int first_arg = 1;
  if (argc > 1) {
    std::string sub = argv[1];
    first_arg = 2;
    if (sub == "timeline") {
      kind = Kind::kTimeline;
    } else if (sub == "profile") {
      kind = Kind::kProfile;
    } else if (sub == "validate") {
      validate = true;
    } else {
      first_arg = 1;
    }
  }

  std::string markdown_path, baseline_path, emit_path, collapsed_path;
  std::string top_text = "30", rel_text = "0.05";
  const std::pair<const char*, std::string*> kValued[] = {
      {"--markdown=", &markdown_path}, {"--baseline=", &baseline_path},
      {"--emit-baseline=", &emit_path}, {"--rel-tolerance=", &rel_text},
      {"--collapsed=", &collapsed_path}, {"--top=", &top_text}};
  bool want_markdown = false;
  bool any_flag = false;
  bool profile_only = false;  // --collapsed and --top
  std::vector<std::string> paths;
  for (int i = first_arg; i < argc; ++i) {
    std::string arg = argv[i];
    bool flag = arg.rfind("--", 0) == 0;
    bool known = arg == "--markdown";
    for (const auto& [name, value] : kValued) {
      if (arg.rfind(name, 0) != 0) continue;
      *value = arg.substr(std::strlen(name));
      known = true;
      profile_only |= value == &collapsed_path || value == &top_text;
    }
    if (flag && !known) Usage(argv[0]);
    if (!flag) paths.push_back(arg);
    any_flag |= flag;
    want_markdown |= arg.rfind("--markdown", 0) == 0;
  }
  char* top_end = nullptr;
  char* rel_end = nullptr;
  long top_n = std::strtol(top_text.c_str(), &top_end, 10);
  double rel_tolerance = std::strtod(rel_text.c_str(), &rel_end);
  if (top_text.empty() || *top_end != '\0' || top_n <= 0 ||
      rel_text.empty() || *rel_end != '\0' || !(rel_tolerance >= 0) ||
      (profile_only && kind != Kind::kProfile)) {
    Usage(argv[0]);
  }

  if (validate) {
    if (any_flag || paths.size() < 2 || paths.size() > 3) Usage(argv[0]);
    dmr::Result<std::string> summary = analysis::Validate(
        paths[0], paths[1], paths.size() == 3 ? paths[2] : "");
    if (!summary.ok()) {
      std::fprintf(stderr, "dmr-analyze validate: %s\n",
                   summary.status().ToString().c_str());
      return summary.status().IsIoError() ? 2 : 1;
    }
    std::printf("%s\n", summary->c_str());
    return 0;
  }
  if (paths.empty()) Usage(argv[0]);

  std::vector<analysis::Table> runs;
  for (const std::string& path : paths) {
    dmr::Result<analysis::Table> run = analysis::LoadTable(kind, path);
    DieOn(run.status(), path);
    runs.push_back(std::move(run).ValueUnsafe());
  }

  if (want_markdown || (baseline_path.empty() && emit_path.empty() &&
                        collapsed_path.empty())) {
    std::string markdown =
        analysis::RenderMarkdown(kind, runs, static_cast<size_t>(top_n));
    if (markdown_path.empty()) {
      std::fputs(markdown.c_str(), stdout);
    } else {
      WriteFile(markdown_path, markdown, "markdown");
    }
  }
  if (!collapsed_path.empty()) {
    WriteFile(collapsed_path, analysis::RenderCollapsed(runs.front()),
              "collapsed stacks");
  }
  if (!emit_path.empty()) {
    WriteFile(emit_path, analysis::EmitBaseline(kind, runs, rel_tolerance),
              "baseline (curate orderings by hand)");
  }
  if (baseline_path.empty()) return 0;

  dmr::Result<dmr::json::JsonValue> baseline =
      analysis::LoadJson(baseline_path);
  DieOn(baseline.status(), baseline_path);
  dmr::Result<analysis::BaselineReport> checked =
      analysis::CheckBaseline(kind, *baseline, runs);
  DieOn(checked.status(), baseline_path);
  for (const std::string& note : checked->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : checked->failures) {
    std::fprintf(stderr, "REGRESSION: %s\n", failure.c_str());
  }
  if (!checked->ok()) {
    std::fprintf(stderr, "dmr-analyze: %zu regression(s) vs %s\n",
                 checked->failures.size(), baseline_path.c_str());
    return 1;
  }
  std::printf("baseline OK: %d metric(s), %d ordering(s) checked vs %s\n",
              checked->entries_checked, checked->orderings_checked,
              baseline_path.c_str());
  return 0;
}
