#include "dynamic/growth_policy.h"

#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/strings.h"

namespace dmr::dynamic {

Result<GrowthPolicy> GrowthPolicy::Create(std::string name,
                                          std::string description,
                                          double work_threshold_pct,
                                          std::string grab_limit_text,
                                          double eval_interval_seconds) {
  if (name.empty()) return Status::InvalidArgument("policy name is empty");
  // Written so that NaN fails each check (a policy file may say "nan").
  if (!(work_threshold_pct >= 0.0 && work_threshold_pct <= 100.0)) {
    return Status::InvalidArgument("work threshold must be in [0, 100]");
  }
  if (!(eval_interval_seconds > 0.0 && std::isfinite(eval_interval_seconds))) {
    return Status::InvalidArgument(
        "evaluation interval must be finite and > 0");
  }
  DMR_ASSIGN_OR_RETURN(GrabLimitExpr expr,
                       GrabLimitExpr::Parse(grab_limit_text));
  return GrowthPolicy(std::move(name), std::move(description),
                      work_threshold_pct, std::move(expr),
                      eval_interval_seconds);
}

int64_t GrowthPolicy::GrabLimit(const mapred::ClusterStatus& cluster) const {
  SlotVars vars;
  vars.available_slots = static_cast<double>(cluster.available_map_slots());
  vars.total_slots = static_cast<double>(cluster.total_map_slots);
  double raw = grab_limit_.Evaluate(vars);
  // NaN grants nothing; anything from 2^63 up (infinity included) is past
  // what llround can represent and means unbounded.
  if (std::isnan(raw) || raw <= 0.0) return 0;
  if (raw >= 0x1p63) return std::numeric_limits<int64_t>::max();
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(raw)));
}

bool GrowthPolicy::unbounded() const {
  // Unbounded iff the limit is infinite regardless of cluster state.
  SlotVars zero{0.0, 0.0};
  return std::isinf(grab_limit_.Evaluate(zero));
}

void GrowthPolicy::Apply(mapred::JobConf* conf) const {
  conf->set_dynamic_job(true);
  conf->set_policy(name_);
  conf->set_eval_interval(eval_interval_);
  conf->set_work_threshold_pct(work_threshold_pct_);
}

const PolicyTable& PolicyTable::BuiltIn() {
  static const PolicyTable* table = [] {
    auto* t = new PolicyTable();
    auto add = [t](const char* name, const char* desc, double threshold,
                   const char* grab) {
      auto policy = GrowthPolicy::Create(name, desc, threshold, grab);
      DMR_CHECK(policy.ok()) << policy.status().ToString();
      DMR_CHECK(t->Add(*std::move(policy)).ok());
    };
    add("Hadoop", "Hadoop's default behaviour (all input up front)", 0.0,
        "INF");
    add("HA", "Highly Aggressive policy", 0.0, "max(0.5 * TS, AS)");
    add("MA", "Mid Aggressive policy", 5.0, "AS > 0 ? 0.5 * AS : 0.2 * TS");
    add("LA", "Less Aggressive policy", 10.0,
        "AS > 0 ? 0.2 * AS : 0.1 * TS");
    add("C", "Conservative policy", 15.0, "0.1 * AS");
    return t;
  }();
  return *table;
}

Result<PolicyTable> PolicyTable::Parse(const std::string& text) {
  DMR_ASSIGN_OR_RETURN(Properties props, Properties::Parse(text));

  // Collect policy names in file order of first appearance.
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const auto& [key, value] : props.entries()) {
    if (!StartsWith(key, "policy.")) {
      return Status::ParseError("unexpected key '" + key +
                                "' (expected policy.<NAME>.<field>)");
    }
    auto rest = key.substr(7);
    auto dot = rest.find('.');
    if (dot == std::string::npos || dot == 0) {
      return Status::ParseError("malformed policy key '" + key + "'");
    }
    std::string name = rest.substr(0, dot);
    if (seen.insert(name).second) names.push_back(name);
  }

  PolicyTable table;
  for (const auto& name : names) {
    std::string prefix = "policy." + name + ".";
    std::string grab = props.Get(prefix + "grab_limit", "");
    if (grab.empty()) {
      return Status::ParseError("policy '" + name + "' lacks grab_limit");
    }
    DMR_ASSIGN_OR_RETURN(double threshold,
                         props.GetDouble(prefix + "work_threshold", 0.0));
    DMR_ASSIGN_OR_RETURN(double interval,
                         props.GetDouble(prefix + "eval_interval", 4.0));
    DMR_ASSIGN_OR_RETURN(
        GrowthPolicy policy,
        GrowthPolicy::Create(name, props.Get(prefix + "description", ""),
                             threshold, grab, interval));
    DMR_RETURN_NOT_OK(table.Add(std::move(policy)));
  }
  return table;
}

Result<GrowthPolicy> PolicyTable::Find(const std::string& name) const {
  for (const auto& p : policies_) {
    if (EqualsIgnoreCase(p.name(), name)) return p;
  }
  return Status::NotFound("no policy named '" + name + "'");
}

bool PolicyTable::Contains(const std::string& name) const {
  return Find(name).ok();
}

Status PolicyTable::Add(GrowthPolicy policy) {
  if (Contains(policy.name())) {
    return Status::AlreadyExists("policy '" + policy.name() +
                                 "' already registered");
  }
  policies_.push_back(std::move(policy));
  return Status::OK();
}

}  // namespace dmr::dynamic
