#ifndef DMR_OBS_TRACE_H_
#define DMR_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmr::obs {

/// \brief One key/value argument attached to a trace event ("args" in the
/// Chrome trace-event format). Values are pre-rendered JSON fragments.
class TraceArgs {
 public:
  TraceArgs& Set(std::string_view key, std::string_view value);
  TraceArgs& Set(std::string_view key, const char* value);
  TraceArgs& Set(std::string_view key, double value);
  TraceArgs& Set(std::string_view key, int value);
  TraceArgs& Set(std::string_view key, int64_t value);
  TraceArgs& Set(std::string_view key, uint64_t value);
  TraceArgs& Set(std::string_view key, bool value);

  bool empty() const { return fields_.empty(); }

  /// Renders `{"k": v, ...}`.
  std::string ToJson() const;

 private:
  TraceArgs& Raw(std::string_view key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// \brief A per-experiment-cell trace event sink (obs::Cell owns one when
/// tracing is on).
///
/// Chrome's trace-event format organizes events into processes (pid) and
/// threads (tid); we map **pid = one simulated node** (plus one extra
/// "client" track) and **tid = one map slot** on that node, so Perfetto
/// renders the cluster as a swim-lane per slot. Because many independent
/// simulations may record into one file, each stream owns a contiguous
/// pid range; local pids passed to the methods below are relative to the
/// stream and translated internally.
///
/// A stream is single-threaded (it belongs to one simulation cell).
class TraceStream {
 public:
  /// Local pids [0, num_pids) map to [pid_base, pid_base + num_pids);
  /// async-span ids are offset by `id_base`.
  TraceStream(std::string label, int pid_base, int num_pids,
              uint64_t id_base)
      : label_(std::move(label)),
        pid_base_(pid_base),
        num_pids_(num_pids),
        id_base_(id_base) {}

  /// Names the track group, e.g. "cell-0007 node3" (Chrome "process_name"
  /// metadata).
  void ProcessName(int pid, std::string_view name);
  /// Names one lane within a pid (Chrome "thread_name" metadata).
  void ThreadName(int pid, int tid, std::string_view name);

  /// A complete span ("ph":"X"): `ts`/`dur` in simulated seconds.
  void Complete(double ts, double dur, int pid, int tid,
                std::string_view name, std::string_view cat,
                const TraceArgs& args = {});

  /// Async span pair ("ph":"b"/"e"), correlated by (cat, id).
  void AsyncBegin(double ts, uint64_t id, int pid, std::string_view name,
                  std::string_view cat, const TraceArgs& args = {});
  void AsyncEnd(double ts, uint64_t id, int pid, std::string_view name,
                std::string_view cat, const TraceArgs& args = {});

  /// An instant event ("ph":"i", thread scope).
  void Instant(double ts, int pid, int tid, std::string_view name,
               std::string_view cat, const TraceArgs& args = {});

  /// A counter track sample ("ph":"C").
  void Counter(double ts, int pid, std::string_view name,
               std::string_view series, double value);

  int num_pids() const { return num_pids_; }
  const std::string& label() const { return label_; }
  size_t num_events() const { return events_.size(); }
  /// Rendered JSON objects, in recording order.
  const std::vector<std::string>& events() const { return events_; }

 private:
  void Push(std::string event) { events_.push_back(std::move(event)); }
  std::string Header(char ph, double ts, int pid, int tid,
                     std::string_view name, std::string_view cat) const;

  std::string label_;
  int pid_base_;
  int num_pids_;
  /// Namespaces async-span ids so two cells' job 1 spans never correlate.
  uint64_t id_base_;
  std::vector<std::string> events_;  // rendered JSON objects
};

/// Renders `{"traceEvents": [...], "displayTimeUnit": "ms"}` over
/// `streams`' events, stream by stream: a file loadable in Perfetto /
/// chrome://tracing.
std::string TraceJson(const std::vector<const TraceStream*>& streams);

}  // namespace dmr::obs

#endif  // DMR_OBS_TRACE_H_
