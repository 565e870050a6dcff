#include "obs/slo.h"

#include <cstdio>

#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace dmr::obs {

using json::JsonNumber;

int SloMonitor::AddRule(const SloRule& rule) {
  rules_.push_back(rule);
  states_.emplace_back();
  return static_cast<int>(rules_.size() - 1);
}

void SloMonitor::Evaluate(double now) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    double measured = 0.0;
    if (!timeline_->LatestWindowStat(rule.series, rule.window, rule.quantile,
                                     &measured)) {
      continue;  // series not registered yet / no closed tick
    }
    ++state.evaluated_ticks;
    const bool breached = measured >= rule.max_value;
    if (breached) ++state.breached_ticks;

    // Breach *instant*: the ok -> breached crossing, not every breached
    // tick — the trace stays readable under a sustained violation.
    if (breached && !state.in_breach) {
      breaches_.push_back({now, static_cast<int32_t>(i), false, measured});
      if (trace_ != nullptr) {
        TraceArgs args;
        args.Set("rule", rule.name);
        args.Set("series", rule.series);
        args.Set("window_s", rule.window);
        args.Set("quantile", rule.quantile);
        args.Set("measured", measured);
        args.Set("max", rule.max_value);
        trace_->Instant(now, trace_pid_, 0, "slo.breach", "slo", args);
      }
      if (flight_ != nullptr) {
        flight_->Append(now, FlightEventKind::kSloBreach, /*job=*/-1,
                        /*node=*/-1, static_cast<int32_t>(i), measured);
      }
    }
    state.in_breach = breached;

    // Error-budget burn: latched once the breached-tick fraction exceeds
    // the budget. Evaluated on the same deterministic tick stream.
    if (!state.budget_burned && rule.budget_fraction < 1.0 &&
        state.evaluated_ticks > 0) {
      const double burn = static_cast<double>(state.breached_ticks) /
                          static_cast<double>(state.evaluated_ticks);
      if (burn > rule.budget_fraction) {
        state.budget_burned = true;
        breaches_.push_back({now, static_cast<int32_t>(i), true, burn});
        if (trace_ != nullptr) {
          TraceArgs args;
          args.Set("rule", rule.name);
          args.Set("burn_fraction", burn);
          args.Set("budget_fraction", rule.budget_fraction);
          trace_->Instant(now, trace_pid_, 0, "slo.budget_burn", "slo", args);
        }
        if (flight_ != nullptr) {
          flight_->Append(now, FlightEventKind::kSloBreach, /*job=*/-1,
                          /*node=*/-1, static_cast<int32_t>(i), burn);
        }
      }
    }
  }
}

std::string SloMonitor::ToJson() const {
  std::string out = "{\"rules\": [";
  bool first = true;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    const RuleState& state = states_[i];
    if (!first) out += ",";
    first = false;
    out += "\n      {\"name\": " + json::JsonQuote(rule.name) +
           ", \"series\": " + json::JsonQuote(rule.series) +
           ", \"window\": " + JsonNumber(rule.window) +
           ", \"quantile\": " + JsonNumber(rule.quantile) +
           ", \"max\": " + JsonNumber(rule.max_value) +
           ", \"budget_fraction\": " + JsonNumber(rule.budget_fraction) +
           ", \"evaluated_ticks\": " + std::to_string(state.evaluated_ticks) +
           ", \"breached_ticks\": " + std::to_string(state.breached_ticks) +
           ", \"budget_burned\": " +
           (state.budget_burned ? "true" : "false") + "}";
  }
  out += first ? "]" : "\n    ]";
  out += ", \"breaches\": [";
  first = true;
  for (const Breach& breach : breaches_) {
    if (!first) out += ",";
    first = false;
    out += "\n      {\"t\": " + JsonNumber(breach.t) +
           ", \"rule\": " + std::to_string(breach.rule) + ", \"kind\": " +
           (breach.burn ? "\"budget_burn\"" : "\"threshold\"") +
           ", \"measured\": " + JsonNumber(breach.measured) + "}";
  }
  out += first ? "]}" : "\n    ]}";
  return out;
}

}  // namespace dmr::obs
