#ifndef DMR_OBS_REPORT_H_
#define DMR_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace dmr::obs {

/// \brief A per-run structured summary sink: metric snapshot + arbitrary
/// pre-rendered JSON sections (the ledger, critical-path and profile
/// sections), rendered as a text table or a JSON document.
class Report {
 public:
  /// Free-form run metadata (driver name, cell grid, threads, ...).
  void SetInfo(std::string_view key, std::string_view value);
  void SetInfo(std::string_view key, int64_t value);
  void SetInfo(std::string_view key, double value);

  /// Attaches the merged metric snapshot (counters/gauges/histograms).
  void SetSnapshot(Metrics::Snapshot snapshot);

  /// Attaches a pre-rendered JSON value under `name` in the JSON output;
  /// ignored by the text rendering. `json` must be a valid JSON value.
  void AddJsonSection(std::string_view name, std::string json);

  /// Fixed-width text tables (info, counters, histograms, sections).
  std::string ToText() const;

  /// `{"info": {...}, "counters": {...}, "gauges": {...},
  ///   "histograms": [...], "series": [], <raw sections...>}`.
  std::string ToJson() const;

  Status WriteJson(const std::string& path) const;

  const Metrics::Snapshot& snapshot() const { return snapshot_; }

 private:
  struct InfoEntry {
    std::string key;
    std::string text;  // human rendering
    std::string json;  // JSON value rendering
  };

  std::vector<InfoEntry> info_;
  Metrics::Snapshot snapshot_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace dmr::obs

#endif  // DMR_OBS_REPORT_H_
