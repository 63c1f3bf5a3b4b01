// Simulated CUDA stream: a FIFO of asynchronous operations on one device.
//
// Each operation starts once (a) the previous operation on the stream has
// completed and (b) its host-side ready time has passed, then reports its
// own completion time (possibly via simulator events, e.g. a kernel whose
// quiet waits on remote deliveries).
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "gpu/kernel.hpp"
#include "sim/event_queue.hpp"
#include "simsan/checker.hpp"
#include "util/time.hpp"

namespace pgasemb::sim {
class Simulator;
}

namespace pgasemb::gpu {

class Device;
class GpuEvent;

class Stream {
 public:
  Stream(sim::Simulator& simulator, Device& device, std::string name);

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// An operation: invoked with its start time; must call `done(end)`
  /// exactly once with end >= start (synchronously or from a later event).
  using Op = std::function<void(SimTime start,
                                std::function<void(SimTime end)> done)>;

  /// Generic enqueue. `ready` is the earliest start (host enqueue time).
  void enqueue(SimTime ready, std::string label, Op op);

  /// Enqueue a kernel launch; occupies the device compute resource.
  void enqueueKernel(SimTime ready, KernelDesc desc);

  /// Enqueue an operation with a fixed duration (e.g. a D2D copy).
  // pgaslint:allow(unused-decl) stream-ordering tests without kernels
  void enqueueFixed(SimTime ready, std::string label, SimTime duration,
                    std::function<void()> body = nullptr);

  /// Enqueue an event record (completes instantly when reached).
  void enqueueRecord(SimTime ready, GpuEvent& event);

  /// Enqueue a wait: the stream stalls until `event` is recorded.
  void enqueueWaitEvent(SimTime ready, GpuEvent& event);

  // pgaslint:allow(unused-decl) stream drain checks in tests
  bool idle() const { return !busy_ && queue_.empty(); }

  /// Completion time of the most recently finished operation.
  SimTime lastCompletion() const { return last_completion_; }

  Device& device() { return device_; }
  const std::string& name() const { return name_; }

  /// Attach the simsan checker: creates this stream's actor and starts
  /// recording happens-before edges (host-order at enqueue, event
  /// release/acquire, kernel footprints). Call before any enqueue.
  void enableSanitizer(simsan::Checker& checker);

  simsan::Checker* sanitizer() const { return sanitizer_; }
  simsan::ActorId sanitizerActor() const { return actor_; }

 private:
  struct Pending {
    SimTime ready;
    std::string label;
    Op op;
  };

  void tryStartNext();
  void opFinished(SimTime end);

  sim::Simulator& simulator_;
  Device& device_;
  std::string name_;
  simsan::Checker* sanitizer_ = nullptr;
  simsan::ActorId actor_ = -1;
  std::deque<Pending> queue_;
  bool busy_ = false;
  SimTime last_completion_ = SimTime::zero();
  /// Staging buffer for per-slice events, reused across kernel launches
  /// so the hot path does not reallocate it per kernel.
  std::vector<sim::EventQueue::Batch> slice_batch_;
};

}  // namespace pgasemb::gpu
