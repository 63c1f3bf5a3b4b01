#include "core/latency_histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace pgasemb::core {

LatencyHistogram::LatencyHistogram() : bins_(kNumBins, 0) {}

std::size_t LatencyHistogram::binIndex(double ms) const {
  if (ms < kMinMs) return 0;
  // log10(ms / kMinMs) in [0, kDecades) maps onto bins 1..96; beyond
  // the last decade is the overflow bin.
  const double pos = std::log10(ms / kMinMs) * kBinsPerDecade;
  const auto idx = static_cast<std::int64_t>(pos);  // pos >= 0 here
  if (idx >= kBinsPerDecade * kDecades) return bins_.size() - 1;
  return static_cast<std::size_t>(idx) + 1;
}

void LatencyHistogram::add(SimTime latency) {
  PGASEMB_CHECK(latency >= SimTime::zero(), "negative latency");
  ++bins_[binIndex(latency.toMs())];
  ++count_;
  min_ = std::min(min_, latency);
  max_ = std::max(max_, latency);
  sum_ += latency;
}

double LatencyHistogram::meanMs() const {
  return count_ ? sum_.toMs() / static_cast<double>(count_) : 0.0;
}

std::int64_t LatencyHistogram::binCount(std::size_t bin) const {
  PGASEMB_CHECK(bin < bins_.size(), "bad histogram bin ", bin);
  return bins_[bin];
}

double LatencyHistogram::binLowMs(std::size_t bin) const {
  PGASEMB_CHECK(bin < bins_.size(), "bad histogram bin ", bin);
  if (bin == 0) return 0.0;
  return kMinMs * std::pow(10.0, static_cast<double>(bin - 1) /
                                     kBinsPerDecade);
}

double LatencyHistogram::binHighMs(std::size_t bin) const {
  PGASEMB_CHECK(bin < bins_.size(), "bad histogram bin ", bin);
  if (bin + 1 == bins_.size()) {
    // Open-ended overflow: report the observed extreme so interpolation
    // stays inside real data.
    return std::max(max().toMs(), kMinMs * std::pow(10.0, kDecades));
  }
  return kMinMs * std::pow(10.0, static_cast<double>(bin) / kBinsPerDecade);
}

double LatencyHistogram::percentileMs(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t bin = 0; bin < bins_.size(); ++bin) {
    const double in_bin = static_cast<double>(bins_[bin]);
    if (in_bin == 0.0) continue;
    if (cum + in_bin >= target) {
      const double frac =
          in_bin > 0.0 ? std::clamp((target - cum) / in_bin, 0.0, 1.0) : 0.0;
      const double lo = binLowMs(bin);
      const double hi = binHighMs(bin);
      return std::clamp(lo + frac * (hi - lo), min().toMs(), max().toMs());
    }
    cum += in_bin;
  }
  return max().toMs();
}

SimTime windowP95(std::vector<SimTime>& window) {
  if (window.empty()) return SimTime::zero();
  const std::size_t rank = window.size() * 95 / 100;
  std::nth_element(window.begin(),
                   window.begin() + static_cast<std::ptrdiff_t>(rank),
                   window.end());
  return window[rank];
}

LatencyWindow::LatencyWindow(int capacity)
    : capacity_(static_cast<std::size_t>(std::max(capacity, 0))) {}

void LatencyWindow::add(SimTime latency) {
  if (values_.size() < capacity_) {
    values_.push_back(latency);
    return;
  }
  values_[next_] = latency;
  next_ = (next_ + 1) % capacity_;
}

SimTime LatencyWindow::p95() const {
  if (!full()) return SimTime::zero();
  scratch_ = values_;
  return windowP95(scratch_);
}

}  // namespace pgasemb::core
