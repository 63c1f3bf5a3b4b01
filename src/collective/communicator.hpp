// NCCL-like collective communication library on the simulated fabric.
//
// Collectives are enqueued on each device's default stream (so they start
// only after prior kernels on that stream finish — "communication does
// not start until the embedding table forward CUDA kernel finishes",
// paper §IV) and charge the host the collective trigger overhead, which
// is the "communication control path" cost the paper attributes to the
// baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collective/request.hpp"
#include "fabric/fabric.hpp"
#include "fault/transport.hpp"
#include "gpu/system.hpp"
#include "util/pool.hpp"

namespace pgasemb::collective {

/// Per-node staging buffer ranges of the hierarchical all-to-all,
/// declared by the builder so simsan can log the gather/scatter
/// interleavings.  Empty when no checker is attached.
struct HierStaging {
  int device = -1;  ///< leader GPU of the node
  std::vector<simsan::StridedRange> gather_slots;  ///< one per local rank
  std::vector<simsan::StridedRange> recv_slots;    ///< one per source node
};

/// Leader staging of the hierarchical all-to-all (DESIGN.md §12):
/// members stage their inter-node contributions at the node leader over
/// NVLink, the leader ships exactly one aggregated flow per destination
/// node — a one-sided bulk RDMA from a pre-staged contiguous buffer, so
/// it runs at full NIC fraction instead of the collective protocol
/// efficiency — and the destination leader scatters over NVLink. Whether
/// the hierarchy is armed, and the codec, come from the Transport; these
/// are the buffers and the failover hook the builder provisions for it.
struct HierarchicalParams {
  std::vector<HierStaging> staging;  ///< per node; may be empty
  /// Standby staging on each node's failover leader (the next healthy
  /// GPU), provisioned by the builder when the fault plan can fail a
  /// leader. Empty when no leader-fail spec is armed; entries with
  /// device = -1 mean "no standby for this node".
  std::vector<HierStaging> standby_staging;
  /// Host hook replaying the staging-rebuild kernel on a node's standby
  /// leader (set by the builder; returns the kernel's completion time).
  /// Null = timing-free rebuild (counters still tick).
  std::function<SimTime(int node, int standby_device)> rebuild;
};

class Communicator {
 public:
  /// `transport` carries every collective wire transfer: chunks that
  /// cross nodes are encoded by its codec, and under an armed injector
  /// flap-dropped chunks are reissued (counted as collective_reissues).
  /// With its hierarchy armed on a multi-node topology, the all-to-all
  /// takes the leader-staged path over `hier`'s buffers. A bare fabric
  /// gives the flat, fault-free path.
  Communicator(gpu::MultiGpuSystem& system, fault::Transport transport,
               HierarchicalParams hier = {});

  int numGpus() const { return system_.numGpus(); }

  /// The transport every wire transfer goes through, and the leader
  /// staging of the hierarchical all-to-all (retrievers launch their
  /// staging kernels on the transport's elected leaders).
  const fault::Transport& transport() const { return transport_; }
  const HierarchicalParams& hierStaging() const { return hier_; }

  /// Asynchronous all-to-all: `send_bytes[src][dst]` payload bytes move
  /// from src to dst (diagonal = local, free). Equivalent of
  /// torch.distributed.all_to_all_single(async_op=True) on every rank.
  /// `on_complete` (optional) runs at wait() — used by functional mode to
  /// land the real data. `streams` (optional, one per GPU) selects the
  /// streams the collective enqueues on — side comm streams let a
  /// pipelined caller overlap the next batch's compute with this
  /// collective; default = each device's default stream.
  /// `memory` (optional) declares each rank's staging buffers for simsan
  /// access logging; ignored when no checker is attached.
  Request allToAllSingle(
      const std::vector<std::vector<std::int64_t>>& send_bytes,
      std::function<void()> on_complete = nullptr,
      const std::vector<gpu::Stream*>* streams = nullptr,
      const CollectiveMemory* memory = nullptr);

  /// Ring all-reduce = reduce-scatter + all-gather, 2(p-1) steps.
  Request allReduce(std::int64_t total_bytes);

  /// `rounds` rounds in which every GPU ships `bytes_per_round` to its
  /// ring successor, with a full synchronization between rounds.  This is
  /// the baseline gradient-aggregation pattern of the EMB backward pass
  /// the paper's future-work section describes ("multiple rounds of
  /// collective calls, where embeddings are shifted to the next GPU").
  Request ringShiftRounds(std::int64_t bytes_per_round, int rounds);

 private:
  /// Shared scaffolding: enqueue one op per device; `inject(src, start,
  /// state)` returns the time src's part of the wire traffic is fully
  /// delivered (state carries cross-rank hierarchical bookkeeping).
  Request launch(
      const std::string& label,
      std::function<SimTime(int src, SimTime start,
                            detail::CollectiveState& state)> inject,
      std::function<void()> on_complete,
      const std::vector<gpu::Stream*>* streams = nullptr,
      const CollectiveMemory* memory = nullptr);

  /// simsan hook run at a collective's completion event: logs each
  /// rank's declared send-read/recv-write and applies the retire-together
  /// barrier between all participating rank ops. No-op without a checker.
  void sanitizeCompletion(detail::CollectiveState& state);

  /// simsan hook for the hierarchical path: logs the staging-buffer
  /// gather writes, aggregated inter-flow read/write, and scatter reads,
  /// with release/acquire edges mirroring the real synchronization (the
  /// seeded bug drops the inter-flow→scatter edge). Runs before
  /// sanitizeCompletion's retire-together barrier.
  void sanitizeHierarchical(detail::CollectiveState& state);

  /// Per-collective routing decisions, latched once at launch (host)
  /// time so every member agrees: the elected leader of each node
  /// (failover under a leader-fail window) and the per-node-pair
  /// degraded flags (NIC fault window on either endpoint → that pair's
  /// traffic goes flat; every healthy pair keeps the hierarchy).
  struct HierRouting {
    std::vector<int> leaders;    ///< one per node
    std::vector<char> degraded;  ///< dense src_node × dst_node matrix
  };
  HierRouting computeHierRouting(SimTime at);

  /// Failover housekeeping at collective launch: when a node's staging
  /// leadership has moved inside a new fail window, replay the staging
  /// rebuild on the standby leader (once per node × window) and publish
  /// it to the members via the node's rebuild sync key.
  void maybeRebuildStaging(SimTime at);

  /// One source rank's hierarchical all-to-all injection: flat intra
  /// flows, gather-to-leader, and — for whichever member contributes
  /// last — the aggregated inter flow plus the destination-side scatter.
  SimTime hierarchicalInject(
      int src, SimTime start,
      const std::vector<std::vector<std::int64_t>>& matrix,
      const HierRouting& routing, detail::CollectiveState& state);

  /// Inject the aggregated (src_node → dst_node) inter flow at the
  /// pair's ready time, then the destination-side scatter; returns the
  /// last scatter delivery.
  SimTime injectInterAndScatter(
      int src_node, int dst_node, const detail::HierPair& pair,
      const std::vector<std::vector<std::int64_t>>& matrix,
      const HierRouting& routing, detail::CollectiveState& state);

  /// NCCL protocol efficiency applied to all collective wire traffic
  /// (staging copies, handshakes) — see CostModel.
  double protoEff() const {
    return system_.costModel().collective_protocol_efficiency;
  }

  /// One logical (src, dst) transfer of a collective: charged to the
  /// strict tracker at its payload, encoded by the transport when it
  /// crosses nodes, and sent at the protocol efficiency. Returns its
  /// delivery.
  SimTime sendLogical(int src, int dst, std::int64_t bytes, SimTime at);

  /// How sendChunked() ships each chunk. Hierarchical hops are sent
  /// as-is: their logical transfer is charged once, separately
  /// (forwarded hops would otherwise overdraw the leader's strict
  /// budget), and the aggregated inter-node flow is encoded whole.
  enum class Leg {
    kLogical,  ///< an end-to-end (src, dst) chunk: sendLogical()
    kHop,      ///< a staging gather/scatter hop, at protocol efficiency
    kBulk,     ///< the aggregated leader -> leader RDMA, at full fraction
  };

  /// Ships `bytes` from `from` to `to` in 4 MiB NCCL-style pipeline
  /// chunks, each injected one proxy overhead after the previous
  /// (`inject_at` advances). Returns the last delivery (`inject_at` when
  /// there is nothing to send).
  SimTime sendChunked(int from, int to, std::int64_t bytes,
                      SimTime& inject_at, Leg leg);

  gpu::MultiGpuSystem& system_;
  fault::Transport transport_;
  HierarchicalParams hier_;
  /// Strict-effects attribution cursor: points at the tracker of the
  /// collective whose inject function is currently executing (the sim
  /// is single-threaded; injects run synchronously inside stream ops),
  /// so sendLogical() can charge transfers to the right collective. Null
  /// outside inject windows and without --simsan-strict.
  simsan::StrictCollectiveTracker* strict_active_ = nullptr;
  /// Recycles the per-collective completion records (one per launch).
  util::SharedPool<detail::CollectiveState> state_pool_;
  /// (node, fail-window index) pairs whose standby staging was rebuilt.
  std::vector<std::pair<int, int>> rebuilt_;
  /// Arena whose element addresses serve as the per-node rebuild sync
  /// keys (sized to the topology once, never resized — addresses must
  /// stay stable for the checker).
  std::vector<char> rebuild_sync_;
};

}  // namespace pgasemb::collective
