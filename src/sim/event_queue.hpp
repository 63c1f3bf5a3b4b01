// Priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, sequence number): two events at the same
// simulated instant fire in insertion order, which makes every run fully
// deterministic regardless of host scheduling.
//
// Layout: heap nodes are 24-byte (time, seq, slot) triples in a manual
// 4-ary min-heap (shallower than binary for the same size, and sift
// steps stay inside one cache line of children), while the callables
// live in an open-addressed slot arena with a free list, so heap swaps
// never touch a capture.  `pop()` clears the slot's callable immediately
// — captures die when the event fires, not when the slot is recycled —
// and a drained queue releases its arena once it has grown past the
// shrink threshold (high-water shrink), so one pathological burst does
// not pin memory for the rest of the run.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/time.hpp"

namespace pgasemb::sim {

class EventQueue {
 public:
  /// Slot-arena size above which a fully drained queue releases its
  /// buffers instead of keeping them warm for the next burst.
  static constexpr std::size_t kShrinkSlots = 4096;

  /// Enqueue `fn` to fire at absolute time `at`. Returns the event's
  /// sequence number (monotonic), usable for debugging/tracing.
  std::uint64_t push(SimTime at, EventFn fn);

  /// One pending (time, callable) pair for pushBatch().
  struct Batch {
    SimTime at;
    EventFn fn;
  };

  /// Bulk enqueue: reserves heap and arena space once, then pushes every
  /// entry (consuming its callable). `events` keeps its capacity so hot
  /// callers can reuse the same staging vector across calls.
  void pushBatch(std::vector<Batch>& events);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; SimTime::max() when empty.
  SimTime nextTime() const;

  /// Pop the earliest event. Precondition: !empty().
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };
  Entry pop();

  /// Slots currently held by the arena (live + recyclable); test hook
  /// for the high-water shrink behavior.
  // pgaslint:allow(unused-decl) high-water shrink test
  std::size_t storageSlots() const { return storage_.size(); }

 private:
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    // Index into storage_ — keeps the heap nodes small and cheap to swap.
    std::uint32_t slot;
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t allocSlot(EventFn fn);
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);

  // Manual 4-ary min-heap over (time, seq); children of i are
  // 4i+1 .. 4i+4.
  std::vector<HeapEntry> heap_;
  std::vector<EventFn> storage_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pgasemb::sim
