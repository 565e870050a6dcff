#ifndef DMR_OBS_FLIGHT_RECORDER_H_
#define DMR_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace dmr::sim {
class Arena;
}  // namespace dmr::sim

namespace dmr::obs {

/// What a flight-recorder entry describes. The numeric order is part of
/// the dump format (entries render the kind name, but tests compare
/// against these values), so append new kinds at the end.
enum class FlightEventKind : int32_t {
  kSchedule = 0,          // map attempt launched (value = queued wait, sim s)
  kBackup = 1,            // backup attempt launched (value = primary elapsed)
  kPreempt = 2,           // attempt killed (value = elapsed run time)
  kProviderGrow = 3,      // input provider granted splits (value = count)
  kProviderWait = 4,      // provider said "come back later"
  kProviderEndOfInput = 5,  // provider ended the job's input
  kSloBreach = 6,         // SLO rule crossed into breach (value = measured)
  kProfSeal = 7,          // host profile sealed (detail = timer-stack
                          // imbalances, value = profiled host ms)
};

/// Dump-format name for a kind ("schedule", "backup", ...).
std::string_view FlightEventKindName(FlightEventKind kind);

/// One structured post-mortem event. Plain data on purpose: appends on
/// the simulation hot path must be a handful of stores, and the ring is
/// carved from a sim::Arena whose lifetime the owning cell controls.
struct FlightEvent {
  double t = 0.0;        // virtual time of the decision
  uint64_t seq = 0;      // global append sequence within this recorder
  FlightEventKind kind = FlightEventKind::kSchedule;
  int32_t job = -1;      // job id, -1 when not applicable
  int32_t node = -1;     // node id, -1 when not applicable
  int32_t detail = 0;    // kind-specific (task id, split count, rule index)
  double value = 0.0;    // kind-specific measurement (see FlightEventKind)
};

/// \brief A bounded ring of the last `capacity` FlightEvents.
///
/// The ring storage is carved from a caller-provided sim::Arena when one
/// is given (so multi-cell drivers account the bytes alongside the event
/// arenas), falling back to heap storage otherwise. Appends never
/// allocate after construction. `Snapshot` returns events oldest-first by
/// append sequence — a deterministic order because every append happens at
/// a deterministic point in virtual time (DESIGN.md §15).
///
/// Threading: a recorder belongs to one experiment cell and is only
/// appended from that cell's simulation events, matching the ledger's
/// single-writer-per-cell contract.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity, sim::Arena* arena = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Append(const FlightEvent& event);
  void Append(double t, FlightEventKind kind, int32_t job, int32_t node,
              int32_t detail, double value) {
    FlightEvent e;
    e.t = t;
    e.kind = kind;
    e.job = job;
    e.node = node;
    e.detail = detail;
    e.value = value;
    Append(e);
  }

  size_t capacity() const { return capacity_; }
  /// Lifetime appends (>= size()).
  uint64_t appended() const { return next_seq_; }
  /// Events currently retained (min(appended, capacity)).
  size_t size() const;
  /// Appends that evicted an older event (appended - size).
  uint64_t dropped() const;

  /// Retained events, oldest first by seq.
  std::vector<FlightEvent> Snapshot() const;

  /// Human-readable dump (one line per event), oldest first. `label`
  /// prefixes every line so interleaved multi-cell dumps stay
  /// attributable. Safe to call from the fatal hook.
  void DumpText(std::FILE* out, std::string_view label) const;

  /// JSON object: {"capacity":.., "appended":.., "dropped":..,
  /// "events":[{...}]}.
  std::string ToJson() const;

 private:
  sim::Arena* arena_;  // null => heap-backed
  FlightEvent* ring_;
  size_t capacity_;
  uint64_t next_seq_ = 0;
};

/// Process-global registry of recorders to dump when a DMR_CHECK fails.
/// Registration installs the Logging fatal hook on first use; the dump
/// walks recorders sorted by label (then registration order) so the
/// post-mortem text is deterministic however cells were constructed.
void RegisterFlightRecorderForFatalDump(const FlightRecorder* recorder,
                                        std::string label);
void UnregisterFlightRecorderForFatalDump(const FlightRecorder* recorder);

/// The fatal hook body, exposed so drivers (--dump-flight-recorder) and
/// tests can trigger the same dump without dying. Writes to `out`.
void DumpRegisteredFlightRecorders(std::FILE* out);

}  // namespace dmr::obs

#endif  // DMR_OBS_FLIGHT_RECORDER_H_
