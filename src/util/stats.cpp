#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace pgasemb {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    PGASEMB_CHECK(v > 0.0, "geomean requires strictly positive values, got ",
                  v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  PGASEMB_CHECK(p >= 0.0 && p <= 100.0, "percentile p out of range: ", p);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

}  // namespace pgasemb
