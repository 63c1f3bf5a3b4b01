#include "pgas/runtime.hpp"

#include <algorithm>
#include <string>

#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {

PgasRuntime::PgasRuntime(gpu::MultiGpuSystem& system,
                         fault::Transport transport,
                         std::optional<AggregatorParams> aggregator)
    : system_(system),
      transport_(transport),
      aggregator_(aggregator),
      heap_(system),
      barrier_events_(static_cast<std::size_t>(system.numGpus())) {
  PGASEMB_CHECK(transport.fabric().numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

void PgasRuntime::attachMessagePlan(gpu::KernelDesc& desc, int src,
                                    MessagePlan plan,
                                    std::vector<simsan::MemEffect> remote_writes) {
  PGASEMB_CHECK(src >= 0 && src < system_.numGpus(), "bad source PE ", src);
  if (aggregator_) plan = aggregatePlan(plan, desc.duration, *aggregator_);
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
    using PutResult = fault::FaultInjector::PutResult;
    auto& topo = transport_.fabric().topology();
    const bool hier = transport_.hierarchical();
    const bool seeded_bug =
        san != nullptr &&
        san->seeded(simsan::SeededBug::kRetransmitWithoutQuiet);
    const auto& flows = plan.flows[static_cast<std::size_t>(slice)];
    // One forwarded hop of a put's route, issued once the route so far is
    // acked.
    // Under faults flap-dropped attempts are retransmitted; the route
    // keeps the acked delivery of its last hop, adds up every hop's
    // retransmits and keeps the first loss of the earliest hop that
    // dropped.
    const auto hop = [&](PutResult route, int from, int to,
                         std::int64_t bytes, std::int64_t n_messages) {
      const auto r = transport_.send(Traffic::kPut, from, to, bytes,
                                     n_messages, route.acked);
      if (!route.retransmitted()) route.first_loss = r.first_loss;
      route.attempts += r.attempts - 1;
      route.acked = r.acked;
      return route;
    };
    // Lands one logical put once its route (direct, or forwarded through
    // the leaders) is known: quiet latches the acked delivery, and the
    // simsan window spans injection -> landing (for forwarded puts the
    // leader staging hops are timing-only; the collective retriever's
    // staging buffers are where simsan certifies the gather/scatter
    // interleavings).
    const auto land = [&](const auto& f, const PutResult& route) {
      // Seeded bug (simsan certification): quiet latches the loss time of
      // the first dropped attempt instead of the acked retransmit, so
      // kernel completion no longer covers the recovered write.
      const bool unquieted = seeded_bug && route.retransmitted();
      const SimTime quieted = unquieted ? route.first_loss : route.acked;
      quiet->last_delivery = std::max(quiet->last_delivery, quieted);
      if (san == nullptr) return;
      for (const auto& effect : remote_writes) {
        if (effect.device != f.dst) continue;
        san->access(quiet->side_actor, effect.device, effect.range,
                    effect.kind, at, quieted, effect.label);
        if (!unquieted) continue;
        // The original attempt died at the flap; the retransmit engine
        // lands the write without being re-armed under quiet: its actor
        // is never joined, so the landing races with whoever consumes
        // the destination.
        const auto rogue = san->forkActor(
            "gpu" + std::to_string(src) + ".pgas_put.retransmit",
            quiet->side_actor);
        san->access(rogue, effect.device, effect.range, effect.kind,
                    route.first_loss, route.acked,
                    effect.label + ".retransmit");
      }
    };
    for (const auto& f : flows) {
      if (strict_puts != nullptr) strict_puts->flow(f.dst, f.payload_bytes);
      if (hier && topo.routeClass(src, f.dst) == fabric::LinkClass::kInter) {
        continue;  // forwarded below, aggregated per destination node
      }
      land(f, transport_.send(
                  Traffic::kPut, src, f.dst,
                  transport_.encode(src, f.dst, f.payload_bytes, at),
                  f.n_messages, at));
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
    // NIC faults keep the aggregation (DESIGN.md §13): a degraded NIC
    // slows the one bulk hop, and a flap drops it for one retransmit.
    const int src_node = topo.nodeOf(src);
    const int leader_s = transport_.leaderAt(src_node, at);
    const PutResult injected{at, at, 1};  // a route before its first hop
    for (int node = 0; node < topo.numNodes(); ++node) {
      if (node == src_node) continue;
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
          if (topo.nodeOf(f.dst) == node) land(f, injected);
        }
        continue;
      }
      PutResult staged = injected;
      if (src != leader_s) staged = hop(staged, src, leader_s, to_node, msgs);
      const int leader_d = transport_.leaderAt(node, staged.acked);
      const PutResult landed =
          hop(staged, leader_s, leader_d,
              transport_.encode(leader_s, leader_d, to_node, staged.acked),
              1);
      for (const auto& f : flows) {
        if (topo.nodeOf(f.dst) != node) continue;
        land(f, f.dst == leader_d ? landed
                                  : hop(landed, leader_d, f.dst,
                                        f.payload_bytes, f.n_messages));
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
