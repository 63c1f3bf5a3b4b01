#include "core/fallback.hpp"

#include "util/expect.hpp"

namespace pgasemb::core {

SloTracker::SloTracker(const FallbackPolicy& policy)
    : policy_(policy),
      slo_(SimTime::ms(policy.slo_ms)),
      window_(policy.query_window) {
  PGASEMB_CHECK(!policy_.enabled() || policy_.patience >= 1,
                "fallback patience must be >= 1");
}

bool SloTracker::record(SimTime batch_total) {
  if (!policy_.enabled() || fired_) return false;
  if (batch_total > slo_) {
    ++consecutive_over_;
  } else {
    consecutive_over_ = 0;
  }
  if (consecutive_over_ >= policy_.patience) {
    fired_ = true;
    return true;
  }
  return false;
}

bool SloTracker::recordQuery(SimTime latency) {
  if (!policy_.enabled() || fired_) return false;
  PGASEMB_CHECK(policy_.query_window >= 1,
                "fallback query window must be >= 1");
  window_.add(latency);
  if (!window_.full()) return false;
  if (window_.p95() > slo_) {
    ++consecutive_over_;
  } else {
    consecutive_over_ = 0;
  }
  if (consecutive_over_ >= policy_.patience) {
    fired_ = true;
    return true;
  }
  return false;
}

}  // namespace pgasemb::core
