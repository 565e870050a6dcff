#ifndef DMR_LINT_ENGINE_V1_H_
#define DMR_LINT_ENGINE_V1_H_

#include <string>
#include <vector>

#include "lint/lint.h"

namespace dmr::lint::v1 {

/// \brief The original (PR 5) line-scanning lint engine, kept verbatim.
///
/// lint.cc's LintContent() is the v2 token/scope engine; this is the v1
/// line-regex implementation it replaced, preserved as the oracle for the
/// differential test (tests/lint/lint_diff_test.cc): on every pre-v2
/// fixture the two engines must return byte-identical findings. v1
/// suppressions cover a single line (the allow's own, or the next code
/// line), not the following statement.
std::vector<Finding> LintContentV1(const std::string& path,
                                   const std::string& content);

}  // namespace dmr::lint::v1

#endif  // DMR_LINT_ENGINE_V1_H_
