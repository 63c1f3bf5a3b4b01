#include "pgas/runtime.hpp"

#include <algorithm>
#include <string>

#include "fault/injector.hpp"
#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {

PgasRuntime::PgasRuntime(gpu::MultiGpuSystem& system, fabric::Fabric& fabric)
    : system_(system),
      fabric_(fabric),
      heap_(system),
      barrier_events_(static_cast<std::size_t>(system.numGpus())) {
  PGASEMB_CHECK(fabric.numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

void PgasRuntime::attachMessagePlan(gpu::KernelDesc& desc, int src,
                                    MessagePlan plan, CommCounter* counter,
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
  // links), per-injection comm counters, flow observers — re-arms the
  // per-message path; so does a shared-resource topology, where another
  // source's flow could interleave on the same link.
  desc.coalesce_slices = coalesce_enabled_ &&
                         system_.mode() == gpu::ExecutionMode::kTimingOnly &&
                         system_.sanitizer() == nullptr &&
                         injector_ == nullptr && counter == nullptr &&
                         codec_ == nullptr && !hierarchical_ &&
                         fabric_.coalescingSafe();

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

  desc.on_slice = [this, src, counter, quiet, strict_puts,
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
    // One delivery-tracking callback per slice, not per put: the flow
    // loop retargets `attempt_payload` instead of materializing a fresh
    // std::function for every transfer.
    std::int64_t attempt_payload = 0;
    const fault::FaultInjector::AttemptFn on_attempt =
        [counter, &attempt_payload](SimTime attempt_at,
                                    const fabric::Fabric::Delivery&) {
          if (counter != nullptr) counter->record(attempt_at, attempt_payload);
        };
    auto& topo = fabric_.topology();
    // Hierarchical forwarding stays on under an armed injector: the
    // leader hops are delivery-tracked reliable puts, and only node
    // pairs inside a NIC fault window fall back to direct per-flow puts
    // (per-pair degraded mode — see DESIGN.md §13). This replaces the
    // old global flat fallback that abandoned the hierarchy whenever
    // any plan was armed.
    const bool hier = hierarchical_ && topo.numNodes() > 1;
    const auto& flows = plan.flows[static_cast<std::size_t>(slice)];
    // Common put bookkeeping once the *final* delivery time is known:
    // quiet latches it, the comm counter records the original payload at
    // injection time, and the simsan window spans injection -> landing
    // (for forwarded puts the leader staging hops are timing-only; the
    // collective retriever's staging buffers are where simsan certifies
    // the gather/scatter interleavings).
    const auto log_put = [&](const auto& f, SimTime delivered) {
      quiet->last_delivery = std::max(quiet->last_delivery, delivered);
      if (counter != nullptr) counter->record(at, f.payload_bytes);
      if (san != nullptr) {
        for (const auto& effect : remote_writes) {
          if (effect.device != f.dst) continue;
          san->access(quiet->side_actor, effect.device, effect.range,
                      effect.kind, at, delivered, effect.label);
        }
      }
    };
    // Delivery-tracked direct put (the flat path under faults):
    // flap-dropped attempts are retransmitted after timeout + backoff,
    // every injection counts toward comm volume, and quiet waits on the
    // *acknowledged* delivery. Returns the acked delivery time.
    const auto reliable_direct = [&](const auto& f) {
      attempt_payload = f.payload_bytes;
      const auto r = injector_->reliablePut(
          src, f.dst, f.payload_bytes, f.n_messages, at, on_attempt);
      const bool buggy = injector_->plan().bug_retransmit_without_quiet &&
                         r.retransmitted();
      // Seeded bug (simsan certification): quiet latches the loss time of
      // the dropped attempt instead of the acked retransmit, so kernel
      // completion no longer covers the recovered write.
      quiet->last_delivery = std::max(quiet->last_delivery,
                                      buggy ? r.first_loss : r.acked);
      if (san != nullptr) {
        for (const auto& effect : remote_writes) {
          if (effect.device != f.dst) continue;
          if (!buggy) {
            san->access(quiet->side_actor, effect.device, effect.range,
                        effect.kind, at, r.acked, effect.label);
            continue;
          }
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
      }
      return r.acked;
    };
    for (const auto& f : flows) {
      if (strict_puts != nullptr) strict_puts->flow(f.dst, f.payload_bytes);
      const bool inter =
          topo.routeClass(src, f.dst) == fabric::LinkClass::kInter;
      if (hier && inter) {
        continue;  // forwarded below, aggregated (or degraded) per node
      }
      if (injector_ == nullptr) {
        std::int64_t wire_bytes = f.payload_bytes;
        if (codec_ != nullptr && f.payload_bytes > 0 &&
            f.payload_bytes % 4 == 0 && inter) {
          // Flat-mode compression: each one-sided flow is encoded on its
          // way out of the node (the 256-byte messages shrink but their
          // count — and hence the NIC message-rate padding — does not).
          wire_bytes = fabric::InterNodeCodec::compressedBytes(
              f.payload_bytes, codec_->aggregateBits(topo.nodeOf(src), at));
          codec_->recordFlow(f.payload_bytes, wire_bytes);
          codec_->recordEgress(topo.nodeOf(src), at, wire_bytes);
        }
        const auto d =
            fabric_.transfer(src, f.dst, wire_bytes, f.n_messages, at);
        log_put(f, d.delivered);
        continue;
      }
      reliable_direct(f);
    }
    if (!hier) return;
    // Hierarchical forwarding (DESIGN.md §12): per destination node,
    // this slice's inter-node puts ride three hops —
    //   1. NVLink gather: src -> own node leader (summed payload, the
    //      original message count; free when src IS the leader);
    //   2. one aggregated bulk message leader -> leader over the NIC
    //      (n_messages = 1 kills the per-256-byte rate padding; the
    //      codec, when attached, encodes this hop);
    //   3. NVLink scatter: remote leader -> each destination GPU.
    // Forwarding hop: plain transfer when fault-free, delivery-tracked
    // reliable put (retransmitted on drop) when an injector is armed.
    const auto hop = [&](int a, int b, std::int64_t bytes,
                         std::int64_t msgs, SimTime t) {
      if (injector_ == nullptr) {
        return fabric_.transfer(a, b, bytes, msgs, t).delivered;
      }
      return injector_->reliablePut(a, b, bytes, msgs, t).acked;
    };
    const int src_node = topo.nodeOf(src);
    // Under a leader-fail window the injector's fault domains re-elect
    // the next healthy GPU on the node (counted as a failover).
    const int leader_s = injector_ != nullptr
                             ? injector_->leaderAt(src_node, at)
                             : topo.nodeLeader(src_node);
    for (int node = 0; node < topo.numNodes(); ++node) {
      if (node == src_node) continue;
      if (injector_ != nullptr &&
          injector_->pairDegraded(src_node, node, at)) {
        // Per-pair degraded mode: a NIC fault window covers one of the
        // endpoint nodes, so this pair's traffic skips the leader
        // staging (a dropped aggregate would couple the whole node into
        // one retransmit domain) and goes direct, flow by flow. Every
        // healthy pair below keeps the hierarchy.
        SimTime last = at;
        bool any = false;
        for (const auto& f : flows) {
          if (topo.nodeOf(f.dst) != node) continue;
          last = std::max(last, reliable_direct(f));
          any = true;
        }
        if (any) injector_->recordHierFallback(at, last);
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
          if (topo.nodeOf(f.dst) == node) log_put(f, at);
        }
        continue;
      }
      SimTime staged = at;
      if (src != leader_s) {
        staged = hop(src, leader_s, to_node, msgs, at);
      }
      std::int64_t wire_bytes = to_node;
      if (codec_ != nullptr && to_node % 4 == 0) {
        wire_bytes = fabric::InterNodeCodec::compressedBytes(
            to_node, codec_->aggregateBits(src_node, staged));
        codec_->recordFlow(to_node, wire_bytes);
        codec_->recordEgress(src_node, staged, wire_bytes);
      }
      const int leader_d = injector_ != nullptr
                               ? injector_->leaderAt(node, staged)
                               : topo.nodeLeader(node);
      const SimTime landed = hop(leader_s, leader_d, wire_bytes, 1, staged);
      for (const auto& f : flows) {
        if (topo.nodeOf(f.dst) != node) continue;
        SimTime done = landed;
        if (f.dst != leader_d) {
          done = hop(leader_d, f.dst, f.payload_bytes, f.n_messages, landed);
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

SimTime PgasRuntime::put(int src, int dst, std::int64_t payload_bytes,
                         std::int64_t n_messages) {
  if (injector_ != nullptr) {
    return injector_
        ->reliablePut(src, dst, payload_bytes, n_messages, system_.hostNow())
        .acked;
  }
  const auto d = fabric_.transfer(src, dst, payload_bytes, n_messages,
                                  system_.hostNow());
  return d.delivered;
}

}  // namespace pgasemb::pgas
