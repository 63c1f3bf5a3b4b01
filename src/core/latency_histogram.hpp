// Fixed-layout log-spaced latency histogram for the serving path.
//
// Per-query latencies span four-plus orders of magnitude under load, so
// tail percentiles need log-spaced bins: 12 bins per decade over
// [1 us, 100 s) plus underflow/overflow, a fixed layout every run
// shares. Exact count/min/max/sum ride along, so the mean is exact and
// interpolated percentiles are clamped to observed extremes. All state
// is integral or derived from integral SimTime, so same-seed runs
// produce byte-identical histograms.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace pgasemb::core {

class LatencyHistogram {
 public:
  /// Bin layout: bin 0 = underflow (< 1 us), bins 1..96 log-spaced with
  /// 12 per decade over [1 us, 100 s), bin 97 = overflow.
  static constexpr int kBinsPerDecade = 12;
  static constexpr int kDecades = 8;
  static constexpr double kMinMs = 1e-3;  ///< 1 us
  static constexpr std::size_t kNumBins =
      static_cast<std::size_t>(kBinsPerDecade) * kDecades + 2;

  LatencyHistogram();

  void add(SimTime latency);

  std::int64_t count() const { return count_; }
  SimTime min() const { return count_ ? min_ : SimTime::zero(); }
  SimTime max() const { return count_ ? max_ : SimTime::zero(); }
  SimTime sum() const { return sum_; }
  double meanMs() const;

  /// Linear-interpolated percentile (p in [0, 100]) in milliseconds,
  /// clamped to the exact observed [min, max]. Returns 0 when empty.
  double percentileMs(double p) const;

  std::size_t numBins() const { return bins_.size(); }
  std::int64_t binCount(std::size_t bin) const;
  /// Lower/upper edge of a bin in milliseconds (underflow starts at 0,
  /// overflow is open-ended and reports the observed max).
  double binLowMs(std::size_t bin) const;
  double binHighMs(std::size_t bin) const;

  bool operator==(const LatencyHistogram& other) const = default;

 private:
  std::size_t binIndex(double ms) const;

  std::vector<std::int64_t> bins_;
  std::int64_t count_ = 0;
  SimTime min_ = SimTime::max();
  SimTime max_ = SimTime::zero();
  SimTime sum_ = SimTime::zero();
};

/// Nearest-rank p95 of a window of latencies: the floor(0.95 n)-th
/// smallest value (0-based, so always < n). Reorders `window`; zero when
/// it is empty. The serving p95 timeline, the SLO fallback tracker and
/// the admission controller all take their window p95 from here.
SimTime windowP95(std::vector<SimTime>& window);

/// The last `capacity` latencies (capacity >= 1), the oldest overwritten
/// first: the sliding window behind the SLO fallback tracker and the
/// admission controller.
class LatencyWindow {
 public:
  explicit LatencyWindow(int capacity);

  void add(SimTime latency);

  /// True once `capacity` latencies have been added.
  bool full() const { return capacity_ > 0 && values_.size() == capacity_; }

  /// windowP95 of the held latencies once full (it does not depend on
  /// their order); zero before.
  SimTime p95() const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< slot the next add overwrites once full
  std::vector<SimTime> values_;
  mutable std::vector<SimTime> scratch_;  ///< reordered by windowP95
};

}  // namespace pgasemb::core
