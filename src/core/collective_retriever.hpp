// The NCCL-collective baseline retriever (paper §IV setup).
//
// Per batch: EmbeddingBagCollection-style lookup kernels write pooled
// embeddings into per-GPU send buffers in all-to-all order; the host
// synchronizes, triggers `all_to_all_single(async_op=True)`, calls
// wait(), then runs an unpack kernel that rearranges the received chunks
// into the final [sample][table][col] tensor.  The three measured phases
// (Computation / Communication / Sync+Unpack) fall directly out of this
// control flow.
#pragma once

#include <memory>
#include <vector>

#include "collective/communicator.hpp"
#include "core/retriever.hpp"
#include "emb/replica_cache.hpp"

namespace pgasemb::core {

class CollectiveRetriever final : public EmbeddingRetriever {
 public:
  /// `cache` (optional) serves hot bags from the local replica: the
  /// lookup computes misses only and the all-to-all splits shrink.
  /// Multi-node behaviour follows `comm`: with its hierarchy armed and
  /// leader staging provisioned (DESIGN.md §12), the leader gather
  /// kernel runs before the exchange and the leader scatter kernel
  /// after wait(), on the elected (possibly standby) leader; the
  /// pipelined baseline rides the same wire path but skips these
  /// device kernels (its buffers are recycled across in-flight
  /// batches). In Functional mode cross-node chunks really pass through
  /// the transport's codec, so landed outputs carry the measured error.
  CollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                      collective::Communicator& comm,
                      emb::ReplicaCache* cache = nullptr);
  ~CollectiveRetriever() override;

  std::string name() const override { return "nccl_collective"; }
  BatchTiming runBatch(const emb::SparseBatch& batch) override;
  gpu::DeviceBuffer& output(int gpu) override;

 private:
  void copyAllToAllPayload();

  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  emb::ReplicaCache* cache_ = nullptr;
  std::vector<gpu::DeviceBuffer> send_buffers_;
  std::vector<gpu::DeviceBuffer> recv_buffers_;
  std::vector<gpu::DeviceBuffer> outputs_;
  /// Per-batch all-to-all byte matrix, zeroed and reused across batches
  /// instead of reallocated (p nested vectors per batch otherwise).
  std::vector<std::vector<std::int64_t>> send_matrix_;
};

}  // namespace pgasemb::core
