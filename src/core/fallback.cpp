#include "core/fallback.hpp"

#include "util/expect.hpp"

namespace pgasemb::core {

SloTracker::SloTracker(const FallbackPolicy& policy)
    : policy_(policy), window_(policy.query_window) {
  if (!policy_.enabled()) return;
  PGASEMB_CHECK(policy_.patience >= 1, "fallback patience must be >= 1");
  PGASEMB_CHECK(!policy_.fallback_to.empty(),
                "fallback policy needs a target retriever");
  if (policy_.slo_ms > 0.0) {
    slo_ = SimTime::ms(policy_.slo_ms);
    calibrated_ = true;
  } else {
    PGASEMB_CHECK(policy_.slo_factor >= 1.0,
                  "slo_factor below 1 would flag the calibration batch");
  }
}

bool SloTracker::record(SimTime batch_total) {
  if (!policy_.enabled() || fired_) return false;
  if (!calibrated_) {
    // First batch defines "healthy"; faults that start mid-run show up
    // as multiples of it.
    slo_ = batch_total * policy_.slo_factor;
    calibrated_ = true;
    return false;
  }
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
  const SimTime p95 = window_.p95();
  if (!calibrated_) {
    // The first full window defines the healthy tail; degradation that
    // develops under load shows up as multiples of it.
    slo_ = p95 * policy_.slo_factor;
    calibrated_ = true;
    return false;
  }
  if (p95 > slo_) {
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
