#include "sim/ps_resource.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace dmr::sim {

namespace {
// A request is complete when its remaining demand falls below an absolute
// floor plus a relative fraction of its original demand; this absorbs the
// floating-point residue that accumulates over repeated Advance() calls.
constexpr double kEpsilonAbs = 1e-9;
constexpr double kEpsilonRel = 1e-9;

// Completion events are never scheduled closer than this, so virtual time
// always advances past residue-sized remainders (a delay of 1e-16 s would
// be absorbed by double addition at t ~ 100 s and loop forever).
constexpr double kMinDelay = 1e-6;

double CompletionEpsilon(double demand) {
  return kEpsilonAbs + kEpsilonRel * demand;
}
}  // namespace

PsResource::PsResource(Simulation* sim, std::string name, double capacity,
                       double per_request_cap)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(capacity),
      per_request_cap_(per_request_cap),
      last_advance_(sim->Now()) {
  DMR_CHECK_GT(capacity_, 0.0) << "resource " << name_;
  DMR_CHECK_GT(per_request_cap_, 0.0) << "resource " << name_;
}

double PsResource::PerRequestRate() const {
  if (requests_.empty()) return 0.0;
  double share = capacity_ / static_cast<double>(requests_.size());
  return std::min(share, per_request_cap_);
}

double PsResource::current_rate() const {
  return PerRequestRate() * static_cast<double>(requests_.size());
}

void PsResource::Advance() {
  double now = sim_->Now();
  double elapsed = now - last_advance_;
  last_advance_ = now;
  if (elapsed <= 0.0 || requests_.empty()) return;
  double rate = PerRequestRate();
  double served = rate * elapsed;
  for (Request& req : requests_) {
    req.remaining -= served;
    delivered_ += std::min(served, req.remaining + served);
  }
}

double PsResource::total_delivered() {
  Advance();
  Reschedule();
  return delivered_;
}

PsResource::RequestId PsResource::Submit(double demand,
                                         CompletionCallback on_complete) {
  Advance();
  RequestId id = next_id_++;
  double d = std::max(demand, 0.0);
  requests_.push_back(Request{id, d, d, std::move(on_complete)});
  Reschedule();
  return id;
}

bool PsResource::CancelRequest(RequestId id) {
  Advance();
  auto it = std::lower_bound(
      requests_.begin(), requests_.end(), id,
      [](const Request& req, RequestId key) { return req.id < key; });
  if (it == requests_.end() || it->id != id) return false;
  requests_.erase(it);
  Reschedule();
  return true;
}

void PsResource::Reschedule() {
  next_completion_.Cancel();
  if (requests_.empty()) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Request& req : requests_) {
    min_remaining = std::min(min_remaining, req.remaining);
  }
  double rate = PerRequestRate();
  double delay = std::max(std::max(0.0, min_remaining) / rate, kMinDelay);
  next_completion_ = sim_->Schedule(delay, EventClass::kTaskLifecycle,
                                    [this] { OnCompletionEvent(); });
}

void PsResource::OnCompletionEvent() {
  Advance();
  // Collect every finished request's callback before running any, keeping
  // submission order among the survivors and among the finished.
  std::vector<CompletionCallback> done = std::move(done_);
  size_t kept = 0;
  for (size_t i = 0; i < requests_.size(); ++i) {
    Request& req = requests_[i];
    if (req.remaining <= CompletionEpsilon(req.demand)) {
      done.push_back(std::move(req.on_complete));
    } else {
      if (kept != i) requests_[kept] = std::move(req);
      ++kept;
    }
  }
  requests_.erase(requests_.begin() + static_cast<ptrdiff_t>(kept),
                  requests_.end());
  Reschedule();
  // Callbacks run after membership/rescheduling so they can safely submit
  // follow-up requests to this same resource.
  for (auto& cb : done) {
    if (cb) cb();
  }
  done.clear();
  done_ = std::move(done);
}

}  // namespace dmr::sim
