#include "engine/admission.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::engine {

ShedPolicy parseShedPolicy(const std::string& name) {
  if (name == "block") return ShedPolicy::kBlock;
  if (name == "shed-oldest") return ShedPolicy::kShedOldest;
  if (name == "shed-newest") return ShedPolicy::kShedNewest;
  PGASEMB_CHECK(false, "unknown shed policy '", name,
                "' (block | shed-oldest | shed-newest)");
  return ShedPolicy::kBlock;
}

AdmissionController::AdmissionController(AdmissionParams params)
    : params_(params), window_(params.window) {
  PGASEMB_CHECK(params_.queue_limit >= 0, "admit-queue must be >= 0");
  PGASEMB_CHECK(params_.window >= 0, "admit-window must be >= 0");
}

bool AdmissionController::admit(const Query& query,
                                std::deque<Query>& pending) {
  (void)query;  // sheds are positional (FIFO), never content-based
  // Overload controller first: a query the controller sheds never
  // reaches the queue, so the bound below sees the post-shed stream.
  if (shed_fraction_ > 0.0) {
    debt_ += shed_fraction_;
    if (debt_ >= 1.0) {
      debt_ -= 1.0;
      ++shed_overload_;
      return false;
    }
  }
  if (params_.queue_limit > 0 &&
      static_cast<std::int64_t>(pending.size()) >= params_.queue_limit) {
    switch (params_.policy) {
      case ShedPolicy::kBlock:
        ++blocked_;
        break;  // open-loop client cannot be back-pressured: admit
      case ShedPolicy::kShedOldest:
        pending.pop_front();
        ++shed_queue_;
        break;
      case ShedPolicy::kShedNewest:
        ++shed_queue_;
        return false;
    }
  }
  return true;
}

void AdmissionController::expire(SimTime now, std::deque<Query>& pending) {
  if (params_.query_deadline <= SimTime::zero()) return;
  // Pending is FIFO by arrival, so expired queries sit at the front.
  while (!pending.empty() &&
         now - pending.front().arrival > params_.query_deadline) {
    pending.pop_front();
    ++deadline_misses_;
  }
}

void AdmissionController::onCompletion(SimTime latency) {
  if (params_.window <= 0 || params_.slo <= SimTime::zero()) return;
  window_.add(latency);
  if (!window_.full()) return;
  // Window p95, then additive-increase / additive-decrease on the shed
  // fraction: react fast to an SLO breach, release load back slowly.
  const SimTime p95 = window_.p95();
  if (p95 > params_.slo) {
    shed_fraction_ = std::min(0.9, shed_fraction_ + 0.1);
  } else {
    shed_fraction_ = std::max(0.0, shed_fraction_ - 0.05);
    if (shed_fraction_ == 0.0) debt_ = 0.0;
  }
}

}  // namespace pgasemb::engine
