#include "pgas/runtime.hpp"

#include <algorithm>
#include <string>

#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {

PgasRuntime::PgasRuntime(gpu::MultiGpuSystem& system,
                         fault::Transport transport)
    : system_(system),
      transport_(transport),
      heap_(system),
      barrier_events_(static_cast<std::size_t>(system.numGpus())) {
  PGASEMB_CHECK(transport.fabric().numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

void PgasRuntime::attachMessagePlan(gpu::KernelDesc& desc, int src,
                                    MessagePlan plan,
                                    const AggregatorParams* aggregator,
                                    std::vector<simsan::MemEffect> remote_writes) {
  PGASEMB_CHECK(src >= 0 && src < system_.numGpus(), "bad source PE ", src);
  if (aggregator != nullptr) {
    plan = aggregatePlan(plan, desc.duration, *aggregator);
  }
  PGASEMB_CHECK(plan.slices >= 1 &&
                    plan.flows.size() ==
                        static_cast<std::size_t>(plan.slices),
                "malformed message plan");

  desc.slices = plan.slices;

  // Slice-coalescing eligibility: every condition under which running
  // the slice callbacks synchronously at kernel start (with their
  // original timestamps) is provably result-identical to one simulator
  // event per slice.  Anything that observes per-message *event order*
  // — the simsan checker, fault drop windows (via the injector or armed
  // links), flow observers — re-arms the per-message path; so does a
  // shared-resource topology, where another source's flow could
  // interleave on the same link.
  desc.coalesce_slices = coalesce_enabled_ &&
                         system_.mode() == gpu::ExecutionMode::kTimingOnly &&
                         system_.sanitizer() == nullptr &&
                         transport_.coalescable();

  auto quiet = quiet_pool_.make();

  // The declared put footprint rides on the descriptor so strict mode
  // can treat remote output ranges as declared while the functional
  // body runs (the body writes them directly; the flows model timing).
  desc.put_effects = remote_writes;
  // Strict-effects put tracker: totals each launch's *logical* flows
  // per destination against the declared footprint (a retransmitted
  // put re-sends the same logical flow, so attempts are not re-counted).
  std::shared_ptr<simsan::StrictPutTracker> strict_puts;
  if (auto* strict = system_.strictEffects()) {
    strict_puts = strict->trackPuts(desc.name, remote_writes);
  }

  desc.on_slice = [this, src, quiet, strict_puts,
                   remote_writes = std::move(remote_writes),
                   plan = std::move(plan)](int slice, SimTime at) {
    auto* san = system_.sanitizer();
    if (san != nullptr && quiet->side_actor < 0) {
      // The in-kernel put engine: inherits what the launching stream had
      // observed, then runs concurrently with everything until quiet.
      quiet->side_actor = san->forkActor(
          "gpu" + std::to_string(src) + ".pgas_put",
          system_.stream(src).sanitizerActor());
    }
    using Traffic = fault::Transport::Traffic;
    auto& topo = transport_.fabric().topology();
    const bool hier = transport_.hierarchical();
    const bool seeded_bug =
        san != nullptr &&
        san->seeded(simsan::SeededBug::kRetransmitWithoutQuiet);
    const auto& flows = plan.flows[static_cast<std::size_t>(slice)];
    // Common put bookkeeping once the *final* delivery time is known:
    // quiet latches it, and the simsan window spans injection -> landing
    // (for forwarded puts the leader staging hops are timing-only; the
    // collective retriever's staging buffers are where simsan certifies
    // the gather/scatter interleavings).
    const auto log_put = [&](const auto& f, SimTime delivered) {
      quiet->last_delivery = std::max(quiet->last_delivery, delivered);
      if (san != nullptr) {
        for (const auto& effect : remote_writes) {
          if (effect.device != f.dst) continue;
          san->access(quiet->side_actor, effect.device, effect.range,
                      effect.kind, at, delivered, effect.label);
        }
      }
    };
    // Direct put of one flow: under faults flap-dropped attempts are
    // retransmitted and quiet waits on the *acknowledged* delivery. Only
    // the fault-free path runs the codec on a direct put; a
    // delivery-tracked put ships the raw payload (kept as-is for parity
    // with earlier builds). Returns the acked delivery time.
    const auto put = [&](const auto& f) {
      const std::int64_t wire =
          transport_.injector() != nullptr
              ? f.payload_bytes
              : transport_.encode(src, f.dst, f.payload_bytes, at);
      const auto r = transport_.send(Traffic::kPut, src, f.dst, wire,
                                     f.n_messages, at);
      if (!(seeded_bug && r.retransmitted())) {
        log_put(f, r.acked);
        return r.acked;
      }
      // Seeded bug (simsan certification): quiet latches the loss time of
      // the dropped attempt instead of the acked retransmit, so kernel
      // completion no longer covers the recovered write.
      quiet->last_delivery = std::max(quiet->last_delivery, r.first_loss);
      for (const auto& effect : remote_writes) {
        if (effect.device != f.dst) continue;
        // The original attempt dies at the flap...
        san->access(quiet->side_actor, effect.device, effect.range,
                    effect.kind, at, r.first_loss, effect.label);
        // ...and the retransmit engine lands the write without being
        // re-armed under quiet: its actor is never joined, so the
        // landing races with whoever consumes the destination.
        const auto rogue = san->forkActor(
            "gpu" + std::to_string(src) + ".pgas_put.retransmit",
            quiet->side_actor);
        san->access(rogue, effect.device, effect.range, effect.kind,
                    r.first_loss, r.acked, effect.label + ".retransmit");
      }
      return r.acked;
    };
    for (const auto& f : flows) {
      if (strict_puts != nullptr) strict_puts->flow(f.dst, f.payload_bytes);
      if (hier && topo.routeClass(src, f.dst) == fabric::LinkClass::kInter) {
        continue;  // forwarded below, aggregated (or degraded) per node
      }
      put(f);
    }
    if (!hier) return;
    // Hierarchical forwarding (DESIGN.md §12): per destination node,
    // this slice's inter-node puts ride three hops —
    //   1. NVLink gather: src -> own node leader (summed payload, the
    //      original message count; free when src IS the leader);
    //   2. one aggregated bulk message leader -> leader over the NIC
    //      (n_messages = 1 kills the per-256-byte rate padding; the
    //      transport encodes this hop);
    //   3. NVLink scatter: remote leader -> each destination GPU.
    const int src_node = topo.nodeOf(src);
    const int leader_s = transport_.leaderAt(src_node, at);
    for (int node = 0; node < topo.numNodes(); ++node) {
      if (node == src_node) continue;
      if (transport_.pairDegraded(src_node, node, at)) {
        // Per-pair degraded mode: a NIC fault window covers one of the
        // endpoint nodes, so this pair's traffic skips the leader
        // staging (a dropped aggregate would couple the whole node into
        // one retransmit domain) and goes direct, flow by flow. Every
        // healthy pair below keeps the hierarchy.
        SimTime last = at;
        bool any = false;
        for (const auto& f : flows) {
          if (topo.nodeOf(f.dst) != node) continue;
          last = std::max(last, put(f));
          any = true;
        }
        if (any) transport_.recordFallback(at, last);
        continue;
      }
      std::int64_t to_node = 0;
      std::int64_t msgs = 0;
      for (const auto& f : flows) {
        if (topo.nodeOf(f.dst) != node) continue;
        to_node += f.payload_bytes;
        msgs += f.n_messages;
      }
      if (to_node == 0) {
        // Nothing to ship; empty puts complete at injection.
        for (const auto& f : flows) {
          if (topo.nodeOf(f.dst) != node) continue;
          log_put(f, at);
        }
        continue;
      }
      SimTime staged = at;
      if (src != leader_s) {
        staged = transport_.send(Traffic::kPut, src, leader_s, to_node, msgs,
                                 at).acked;
      }
      const int leader_d = transport_.leaderAt(node, staged);
      const std::int64_t wire =
          transport_.encode(leader_s, leader_d, to_node, staged);
      const SimTime landed =
          transport_.send(Traffic::kPut, leader_s, leader_d, wire, 1, staged)
              .acked;
      for (const auto& f : flows) {
        if (topo.nodeOf(f.dst) != node) continue;
        SimTime done = landed;
        if (f.dst != leader_d) {
          done = transport_.send(Traffic::kPut, leader_d, f.dst,
                                 f.payload_bytes, f.n_messages, landed)
                     .acked;
        }
        log_put(f, done);
      }
    }
  };

  desc.finalize = [this, src, quiet](SimTime compute_end) {
    // nvshmem_quiet: kernel completion waits for remote-write delivery,
    // and (for simsan) publishes the put engine's writes to the stream.
    auto* san = system_.sanitizer();
    if (san != nullptr && quiet->side_actor >= 0) {
      san->joinActor(system_.stream(src).sanitizerActor(),
                     quiet->side_actor);
    }
    return std::max(compute_end, quiet->last_delivery);
  };
}

void PgasRuntime::barrierAllOnStream() {
  for (const auto& event : barrier_events_) {
    PGASEMB_CHECK(!barrier_armed_ || event.recorded(),
                  "barrierAllOnStream() while the previous barrier is "
                  "still in flight; sync the host first");
  }
  for (auto& event : barrier_events_) event.reset();
  barrier_armed_ = true;
  const SimTime now = system_.hostNow();
  const int p = system_.numGpus();
  for (int g = 0; g < p; ++g) {
    system_.stream(g).enqueueRecord(
        now, barrier_events_[static_cast<std::size_t>(g)]);
  }
  for (int g = 0; g < p; ++g) {
    for (int peer = 0; peer < p; ++peer) {
      if (peer == g) continue;  // stream order already covers itself
      system_.stream(g).enqueueWaitEvent(
          now, barrier_events_[static_cast<std::size_t>(peer)]);
    }
  }
}

}  // namespace pgasemb::pgas
