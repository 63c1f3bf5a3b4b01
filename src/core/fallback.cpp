#include "core/fallback.hpp"

#include "core/latency_histogram.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {

SloTracker::SloTracker(const FallbackPolicy& policy) : policy_(policy) {
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

SimTime SloTracker::windowP95() const {
  if (!window_full_) return SimTime::zero();
  std::vector<SimTime> scratch = window_;  // small — default 64 entries
  return core::windowP95(scratch);
}

bool SloTracker::recordQuery(SimTime latency) {
  if (!policy_.enabled() || fired_) return false;
  if (window_.empty()) {
    PGASEMB_CHECK(policy_.query_window >= 1,
                  "fallback query window must be >= 1");
    window_.assign(static_cast<std::size_t>(policy_.query_window),
                   SimTime::zero());
    window_next_ = 0;
    window_full_ = false;
  }
  window_[window_next_] = latency;
  window_next_ = (window_next_ + 1) % window_.size();
  const bool just_filled = !window_full_ && window_next_ == 0;
  if (just_filled) window_full_ = true;
  if (!window_full_) return false;
  const SimTime p95 = windowP95();
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
