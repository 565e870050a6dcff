#ifndef DMR_MAPRED_INPUT_PROVIDER_H_
#define DMR_MAPRED_INPUT_PROVIDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mapred/job_conf.h"
#include "mapred/types.h"

namespace dmr::mapred {

/// \brief The three possible Input Provider responses (paper Figure 3).
enum class InputResponseKind {
  /// The job does not need to process additional input; in-flight maps
  /// finish, then the job proceeds to the shuffle/reduce phase.
  kEndOfInput,
  /// Additional partitions should be processed next.
  kInputAvailable,
  /// "Wait and see": postpone the decision until the next evaluation.
  kNoInputAvailable,
};

/// \brief An Input Provider's answer to an evaluation.
struct InputResponse {
  InputResponseKind kind = InputResponseKind::kNoInputAvailable;
  /// Populated only for kInputAvailable: ids into the job's SplitTable.
  std::vector<SplitId> splits;
  /// Optional named decision diagnostics (e.g. the provider's selectivity
  /// estimate, grab limit, observed skew). Purely observational: the
  /// JobClient forwards them to trace/metric sinks and otherwise ignores
  /// them, keeping the tracker/client agnostic of provider internals.
  std::vector<std::pair<std::string, double>> diagnostics;

  InputResponse& WithDiagnostic(std::string name, double value) {
    diagnostics.emplace_back(std::move(name), value);
    return *this;
  }

  static InputResponse EndOfInput() {
    InputResponse response;
    response.kind = InputResponseKind::kEndOfInput;
    return response;
  }
  static InputResponse NoInput() {
    InputResponse response;
    response.kind = InputResponseKind::kNoInputAvailable;
    return response;
  }
  static InputResponse Available(std::vector<SplitId> splits) {
    InputResponse response;
    response.kind = InputResponseKind::kInputAvailable;
    response.splits = std::move(splits);
    return response;
  }
};

/// \brief Pluggable, client-side logic that controls a dynamic job's intake
/// of input — the paper's core mechanism (Section III-A).
///
/// The provider lives on the client side (initialized by the JobClient, the
/// JobTracker stays agnostic of it, Section IV). The JobClient invokes
/// Evaluate at regular intervals with the job's progress and the cluster
/// load; the provider answers with one of the three responses above.
class InputProvider {
 public:
  virtual ~InputProvider() = default;

  /// Called once at submission with the job's complete input; responses
  /// name splits by their id in `input`.
  virtual Status Initialize(std::shared_ptr<const SplitTable> input,
                            const JobConf& conf) = 0;

  /// Returns the initial set of partitions the job starts with.
  virtual InputResponse GetInitialInput(const ClusterStatus& cluster) = 0;

  /// Periodic evaluation of the job's need for additional input.
  virtual InputResponse Evaluate(const JobProgress& progress,
                                 const ClusterStatus& cluster) = 0;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_INPUT_PROVIDER_H_
