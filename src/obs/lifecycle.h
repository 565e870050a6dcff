#ifndef DMR_OBS_LIFECYCLE_H_
#define DMR_OBS_LIFECYCLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace dmr::obs {

/// \brief The steps of a job's life. The JobTracker builds one
/// LifecycleRecord per step (provider decisions and delay holds reach it
/// from the JobClient and the fair scheduler) and hands it to two fixed
/// consumers: its JobHistory, which keeps the steps it has an event kind
/// for, and, when one is attached, Cell::Record, which feeds every
/// recorder. The comments name the record fields each step sets.
enum class LifecycleStep : uint8_t {
  kSubmit,             // user
  kSplitsAdded,        // count
  kSplitQueued,        // split, home: one split of the batch just added
  kInputFinalized,
  kProviderDecision,   // outcome, count (splits granted), initial,
                       // diagnostics
  kMapLaunch,          // split, node, slot, start (queued time), pruned
  kBackupLaunch,       // split, node, slot, pruned
  kAttemptEnd,         // split, node, slot, home, outcome, start (launch
                       // time), local, backup
  kSampleSatisfiable,  // the job's output covers its LIMIT k
  kReduceStart,        // node
  kJobComplete,        // node (the reduce's), start (submit time), user
  kDelayHold,          // fair scheduler held a slot awaiting locality
  kDelaySkip,          // ... or skipped the job instead
  kHeartbeat,          // node
  kDemand,             // demand
};

/// How a map attempt ended, or what an Input Provider decided.
enum class Outcome : uint8_t {
  kNone,
  kOk,
  kFailed,
  kKilled,
  kGrow,  // input available
  kWait,  // no input available yet
  kEndOfInput,
};

/// "ok", "failed", "killed", or the provider response name
/// ("input-available", "no-input-available", "end-of-input").
const char* OutcomeName(Outcome outcome);

/// What a free map slot waits on: a mapping job's runnable pending split,
/// input that jobs are still waiting for from their providers, or nothing.
enum class FreeState : uint8_t { kQueue, kProviderWait, kIdle };

/// \brief One lifecycle step. Built on the stack for one report call; the
/// views only need to live that long.
struct LifecycleRecord {
  LifecycleStep step = LifecycleStep::kSubmit;
  Outcome outcome = Outcome::kNone;
  FreeState demand = FreeState::kIdle;
  bool local = false;    // the attempt reads a replica on its own node
  bool backup = false;   // the attempt is a speculative copy
  bool pruned = false;   // the stats hint cut the attempt to a stats read
  bool initial = false;  // the provider's submission-time grab
  double t = 0.0;        // virtual time, stamped by JobTracker::Report
  int32_t job = -1;
  int32_t split = -1;  // split index
  int32_t node = -1;   // node the step ran on
  int32_t slot = -1;   // map slot on `node`
  int32_t home = -1;   // the split's home node (primary replica)
  int32_t count = 0;   // splits handed over or granted
  /// When what ends at `t` began: queue, launch or submit time.
  double start = 0.0;
  std::string_view user = {};
  std::span<const std::pair<std::string, double>> diagnostics = {};
};

}  // namespace dmr::obs

#endif  // DMR_OBS_LIFECYCLE_H_
