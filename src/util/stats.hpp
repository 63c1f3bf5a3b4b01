// Small statistics helpers used by the benchmark harnesses and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace pgasemb {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  // pgaslint:allow(unused-decl) statistics oracle of the Rng tests
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  // pgaslint:allow(unused-decl) statistics oracle of the Rng tests
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Geometric mean of a set of strictly positive values.
double geomean(const std::vector<double>& values);

/// Linear-interpolated percentile, p in [0, 100]. Sorts a copy.
double percentile(std::vector<double> values, double p);

/// Median (50th percentile).
double median(const std::vector<double>& values);

}  // namespace pgasemb
