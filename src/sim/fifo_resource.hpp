// A serially-occupied simulated resource (one direction of an NVLink
// link, a DMA engine, a device's SM array at kernel granularity, ...).
//
// Requests are served in submission order; the event loop submits them in
// nondecreasing simulated-time order, so this models a FIFO hardware
// queue.  The resource tracks cumulative busy time for utilization
// reporting (used to reproduce the paper's ncu throughput observation).
#pragma once

#include <string>

#include "util/time.hpp"

namespace pgasemb::sim {

class FifoResource {
 public:
  explicit FifoResource(std::string name) : name_(std::move(name)) {}

  struct Grant {
    SimTime start;  ///< When service begins (>= arrival).
    SimTime end;    ///< When service completes.
  };

  /// Request the resource for `duration`, arriving at `arrival`.
  Grant acquire(SimTime arrival, SimTime duration);

  /// Earliest time a request arriving at `at` could begin service.
  SimTime nextFreeTime(SimTime at) const;

  /// Pending committed work beyond `at` (zero when the queue is drained).
  // pgaslint:allow(unused-decl) FIFO contract tests
  SimTime backlog(SimTime at) const;

  // pgaslint:allow(unused-decl) FIFO contract tests
  SimTime busyTime() const { return busy_; }
  // pgaslint:allow(unused-decl) FIFO contract tests
  SimTime freeAt() const { return free_at_; }
  const std::string& name() const { return name_; }

  /// Utilization over [0, horizon].
  // pgaslint:allow(unused-decl) FIFO contract tests
  double utilization(SimTime horizon) const;

  void reset();

 private:
  std::string name_;
  SimTime free_at_ = SimTime::zero();
  SimTime busy_ = SimTime::zero();
};

}  // namespace pgasemb::sim
