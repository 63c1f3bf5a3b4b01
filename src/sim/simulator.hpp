// The discrete-event simulator core.
//
// A single `Simulator` instance owns the event queue and the simulated
// clock for one multi-GPU system.  Higher layers (devices, fabric links,
// collectives, PGAS runtime) schedule callbacks; `run()` drains events in
// deterministic (time, insertion) order.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace pgasemb::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Outside run() this is the time the last
  /// drained event fired at (or zero before any run).
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (>= now()).
  void scheduleAt(SimTime at, EventFn fn);

  /// Schedule `fn` `delay` after now().
  void scheduleAfter(SimTime delay, EventFn fn);

  /// Bulk schedule: validates and enqueues every entry with one heap
  /// reservation, so hot callers (e.g. a kernel scheduling one event per
  /// timeline slice) amortize the per-push cost. Consumes the entries;
  /// `events` is cleared but keeps its capacity for reuse.
  void scheduleBatch(std::vector<EventQueue::Batch>& events);

  /// Drain all events. Returns the time of the last event processed.
  SimTime run();

  /// Drain events with time <= `until`; the clock advances to `until`
  /// even if the queue empties earlier. Returns now().
  // pgaslint:allow(unused-decl) event-loop contract tests
  SimTime runUntil(SimTime until);

  // pgaslint:allow(unused-decl) event-loop contract tests
  bool idle() const { return queue_.empty(); }
  std::uint64_t eventsProcessed() const { return events_processed_; }

  /// Advance the clock without processing events. Used by host-side code
  /// to model CPU time (e.g. the latency of triggering a collective call)
  /// passing between enqueues.
  ///
  /// Precondition: `to` must not pass the earliest pending event — doing
  /// so would let host code observe a clock beyond events that have not
  /// fired (silent time travel), after which every subsequent timestamp
  /// is suspect. Violations throw pgasemb::Error naming both times; the
  /// caller should drain with run()/runUntil() first. Backwards calls
  /// (to <= now()) are no-ops.
  // pgaslint:allow(unused-decl) event-loop contract tests
  void advanceClock(SimTime to);

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t events_processed_ = 0;
};

}  // namespace pgasemb::sim
