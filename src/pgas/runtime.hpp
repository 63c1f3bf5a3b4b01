// PGAS runtime: attaches one-sided communication to simulated kernels.
//
// `attachMessagePlan` is the heart of the paper's mechanism: it wires a
// kernel descriptor so that each timeline slice injects its one-sided
// messages into the fabric the moment they are "generated", and the
// kernel completes only when compute is done AND the last remote write
// has been delivered (nvshmem_quiet semantics).  The communication is
// thereby overlapped with — and normally hidden inside — the compute
// window.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/transport.hpp"
#include "gpu/gpu_event.hpp"
#include "gpu/kernel.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/symmetric_heap.hpp"
#include "simsan/access.hpp"
#include "util/pool.hpp"

namespace pgasemb::pgas {

class PgasRuntime {
 public:
  /// `transport` decides how each put leaves its node (DESIGN.md §12):
  /// with the hierarchy armed on a multi-node topology, a slice's
  /// inter-node flows are forwarded src -> node leader -> remote leader
  /// -> dst, the leader->leader hop aggregated per (slice, destination
  /// node) into one bulk message, which is what the codec encodes; quiet
  /// covers the forwarded hops. Under an armed injector every put and
  /// hop is delivery-tracked (quiet waits for the acknowledged
  /// delivery), leaders follow leader-fail failover, and NIC fault
  /// windows keep the aggregation: they slow or drop the bulk hop.
  /// Strict effects account the original payload.
  /// A bare fabric gives the plain, fault-free, flat path.
  ///
  /// `aggregator`, when set, arms the async aggregator model (paper §V)
  /// for every kernel this runtime wires: each attached plan is first
  /// rewritten through aggregatePlan().
  PgasRuntime(gpu::MultiGpuSystem& system, fault::Transport transport,
              std::optional<AggregatorParams> aggregator = std::nullopt);

  SymmetricHeap& heap() { return heap_; }
  const fault::Transport& transport() const { return transport_; }

  /// Master switch for the TimingOnly slice-coalescing fast path
  /// (--no-coalesce escape hatch). Even when enabled, a kernel's slices
  /// are only coalesced when it is provably result-identical: TimingOnly
  /// mode, no simsan checker, and a Transport::coalescable() path.
  /// Default on.
  void setCoalescingEnabled(bool enabled) { coalesce_enabled_ = enabled; }

  /// Wire `desc` so its slices emit `plan`'s flows from GPU `src` and its
  /// completion implements quiet (waits for the last delivery).  With an
  /// aggregator armed the plan is first rewritten through it.
  ///
  /// `remote_writes` declares the destination-memory footprint of the
  /// kernel's one-sided puts for simsan (one effect per destination GPU;
  /// `effect.device` selects which flows it covers).  When a checker is
  /// attached, the puts run under a dedicated side actor forked from the
  /// source GPU's default-stream actor, and the quiet in `finalize` joins
  /// that side actor back — so stripping `finalize` loses both the timing
  /// wait AND the happens-before edge, exactly like skipping
  /// nvshmem_quiet on real hardware.
  void attachMessagePlan(gpu::KernelDesc& desc, int src, MessagePlan plan,
                         std::vector<simsan::MemEffect> remote_writes = {});

  /// Stream-ordered all-PE barrier (nvshmemx_barrier_all_on_stream).
  /// Every PE's default stream records an event at its current tail and
  /// then waits on every peer's event, so anything enqueued afterwards on
  /// a default stream runs after everything enqueued before the call on
  /// every PE. A kernel with an attached message plan completes at its
  /// quiet, so work behind the barrier is ordered after every peer's
  /// one-sided puts — quiet alone orders only a PE's own puts. The host
  /// does not block, and the records and waits charge no host time.
  /// The previous barrier must have completed (the host synced since).
  void barrierAllOnStream();

 private:
  /// Tracks the last remote delivery of one kernel's writes for quiet.
  struct QuietState {
    SimTime last_delivery = SimTime::zero();
    simsan::ActorId side_actor = -1;  ///< this kernel's put engine
  };

  gpu::MultiGpuSystem& system_;
  fault::Transport transport_;
  std::optional<AggregatorParams> aggregator_;
  SymmetricHeap heap_;
  /// One event per PE, reused by every barrierAllOnStream() call (the
  /// streams hold references, so the vector is never resized).
  std::vector<gpu::GpuEvent> barrier_events_;
  bool barrier_armed_ = false;
  bool coalesce_enabled_ = true;
  /// Recycles the per-kernel quiet records (one per attachMessagePlan'd
  /// launch) instead of hitting the allocator each time.
  util::SharedPool<QuietState> quiet_pool_;
};

}  // namespace pgasemb::pgas
