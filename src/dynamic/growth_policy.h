#ifndef DMR_DYNAMIC_GROWTH_POLICY_H_
#define DMR_DYNAMIC_GROWTH_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/properties.h"
#include "common/result.h"
#include "dynamic/grab_limit_expr.h"
#include "mapred/job_conf.h"
#include "mapred/types.h"

namespace dmr::dynamic {

/// \brief A policy for incremental processing of input (paper Table I):
/// EvaluationInterval, WorkThreshold and GrabLimit (Section III-B).
class GrowthPolicy {
 public:
  /// \param grab_limit_text  expression over AS/TS; see GrabLimitExpr.
  static Result<GrowthPolicy> Create(std::string name, std::string description,
                                     double work_threshold_pct,
                                     std::string grab_limit_text,
                                     double eval_interval_seconds = 4.0);

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  double work_threshold_pct() const { return work_threshold_pct_; }
  double eval_interval() const { return eval_interval_; }
  const std::string& grab_limit_text() const { return grab_limit_.text(); }

  /// Max partitions a single intake may add given the cluster state; INT64
  /// max encodes "unbounded" (the Hadoop policy, or any limit of at least
  /// 2^63). Fractional limits round to nearest, with a floor of 1 when the
  /// raw value is positive so a starved job on a nearly-full cluster can
  /// still make progress; a NaN limit is 0.
  int64_t GrabLimit(const mapred::ClusterStatus& cluster) const;

  /// True for the unbounded (Hadoop-style) policy.
  bool unbounded() const;

  /// Writes the policy's execution parameters into a JobConf
  /// (dynamic.job = true, dynamic.job.policy, interval, threshold).
  void Apply(mapred::JobConf* conf) const;

 private:
  GrowthPolicy(std::string name, std::string description,
               double work_threshold_pct, GrabLimitExpr grab_limit,
               double eval_interval)
      : name_(std::move(name)),
        description_(std::move(description)),
        work_threshold_pct_(work_threshold_pct),
        grab_limit_(std::move(grab_limit)),
        eval_interval_(eval_interval) {}

  std::string name_;
  std::string description_;
  double work_threshold_pct_;
  GrabLimitExpr grab_limit_;
  double eval_interval_;
};

/// \brief Named registry of growth policies — the analogue of the paper's
/// policy.xml file (Section IV).
class PolicyTable {
 public:
  /// The paper's five policies (Table I):
  ///
  /// | name   | work threshold | grab limit                   |
  /// |--------|----------------|------------------------------|
  /// | Hadoop | —              | INF                          |
  /// | HA     | 0 %            | max(0.5*TS, AS)              |
  /// | MA     | 5 %            | AS > 0 ? 0.5*AS : 0.2*TS     |
  /// | LA     | 10 %           | AS > 0 ? 0.2*AS : 0.1*TS     |
  /// | C      | 15 %           | 0.1*AS                       |
  ///
  /// EvaluationInterval is 4 s for all but Hadoop (where it is irrelevant).
  static const PolicyTable& BuiltIn();

  /// Parses a policy file in Properties format:
  ///
  ///   policy.<NAME>.description   = ...
  ///   policy.<NAME>.work_threshold = 10      # percent
  ///   policy.<NAME>.grab_limit     = AS > 0 ? 0.2*AS : 0.1*TS
  ///   policy.<NAME>.eval_interval  = 4       # seconds, optional
  static Result<PolicyTable> Parse(const std::string& text);

  Result<GrowthPolicy> Find(const std::string& name) const;
  bool Contains(const std::string& name) const;

  Status Add(GrowthPolicy policy);

  const std::vector<GrowthPolicy>& policies() const { return policies_; }

 private:
  std::vector<GrowthPolicy> policies_;
};

}  // namespace dmr::dynamic

#endif  // DMR_DYNAMIC_GROWTH_POLICY_H_
