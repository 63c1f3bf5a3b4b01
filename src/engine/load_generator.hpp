// Open-loop query load generator (DeepRecSys-style): a deterministic,
// seeded stream of timestamped queries at a configured offered load.
//
// Open loop means arrivals do not depend on service times — when the
// system falls behind, the queue grows and the tail blows up, which is
// exactly the regime the closed-loop benches cannot express. Two
// arrival processes: Poisson (exponential inter-arrivals) and bursty
// on/off (Poisson inside `burst_on_ms` windows at an elevated rate,
// silence for `burst_off_ms`, long-run average = qps). Per-query
// sample counts come from the configured QuerySizeSpec.
#pragma once

#include <cstdint>
#include <optional>

#include "emb/workload.hpp"
#include "engine/experiment.hpp"
#include "util/rng.hpp"

namespace pgasemb::engine {

/// One inference request: `samples` candidate items arriving at
/// `arrival` (simulated time).
struct Query {
  std::int64_t id = 0;
  SimTime arrival = SimTime::zero();
  std::int64_t samples = 1;
};

class LoadGenerator {
 public:
  /// `max_samples` caps each query's sample count at the batcher's
  /// fixed batch shape (a query must fit in an empty batch).
  LoadGenerator(const ServingConfig& config, std::int64_t max_samples);

  /// The next query, with non-decreasing arrival times; nullopt once
  /// `num_queries` have been produced.
  std::optional<Query> next();

 private:
  SimTime nextArrival();

  ServingConfig config_;
  std::int64_t max_samples_;
  emb::QuerySizeSampler sizes_;
  Rng rng_;
  std::int64_t produced_ = 0;
  /// kPoisson: wall-clock arrival accumulator. kBursty: accumulator in
  /// "burst time" (the concatenation of on-windows), mapped to wall
  /// time by re-inserting one off-window per elapsed on-window.
  double clock_s_ = 0.0;
};

}  // namespace pgasemb::engine
