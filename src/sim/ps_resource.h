#ifndef DMR_SIM_PS_RESOURCE_H_
#define DMR_SIM_PS_RESOURCE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace dmr::sim {

/// \brief A processor-sharing resource with a total capacity and an optional
/// per-request rate cap.
///
/// Models disks (capacity = aggregate bandwidth in bytes/s, per-request cap =
/// single-stream bandwidth), node CPUs (capacity = number of cores in
/// core-seconds/s, per-request cap = 1 core), and the cluster network.
/// Active requests share the capacity equally, subject to the per-request
/// cap; when membership changes, remaining demands are advanced and the next
/// completion event is rescheduled. This is the classic PS-queue simulation.
///
/// Requests that finish in the same instant call back in submission order.
class PsResource {
 public:
  using RequestId = uint64_t;
  using CompletionCallback = std::function<void()>;

  /// \param sim        owning simulation (must outlive the resource).
  /// \param name       for diagnostics.
  /// \param capacity   total service units per second; must be > 0.
  /// \param per_request_cap  max service rate any single request receives.
  PsResource(Simulation* sim, std::string name, double capacity,
             double per_request_cap = std::numeric_limits<double>::infinity());

  /// Submits a request demanding `demand` service units; `on_complete` fires
  /// when the demand has been delivered. Zero/negative demand completes at
  /// the current time (via a zero-delay event).
  RequestId Submit(double demand, CompletionCallback on_complete);

  /// Cancels an in-flight request (no callback). Returns false if unknown
  /// or already finished.
  bool CancelRequest(RequestId id);

  /// Number of requests currently being served.
  size_t active_requests() const { return requests_.size(); }

  /// Aggregate service rate currently being delivered (<= capacity).
  double current_rate() const;

  /// Total service units delivered so far (advanced lazily; callers should
  /// treat it as accurate as of the last event).
  double total_delivered();

  /// Instantaneous utilization in [0, 1]: current rate / capacity.
  double Utilization() const { return current_rate() / capacity_; }

  double capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  struct Request {
    RequestId id;
    double remaining;
    /// Original demand (anchors the relative completion epsilon).
    double demand;
    CompletionCallback on_complete;
  };

  /// Advances all remaining demands to Now() and accumulates delivery.
  void Advance();

  /// Fires completion callbacks for exhausted requests, then reschedules.
  void OnCompletionEvent();

  /// Recomputes the next completion event from current membership.
  void Reschedule();

  /// Service rate each active request receives right now.
  double PerRequestRate() const;

  Simulation* sim_;
  std::string name_;
  double capacity_;
  double per_request_cap_;
  /// Active requests in id (= submission) order.
  std::vector<Request> requests_;
  /// The callbacks one completion event fires; kept to reuse its buffer.
  std::vector<CompletionCallback> done_;
  RequestId next_id_ = 1;
  double last_advance_ = 0.0;
  double delivered_ = 0.0;
  EventHandle next_completion_;
};

}  // namespace dmr::sim

#endif  // DMR_SIM_PS_RESOURCE_H_
