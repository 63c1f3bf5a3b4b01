// Tests for the inter-batch pipelined collective baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "core/pipelined_retriever.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;
  emb::ShardedEmbeddingLayer layer;

  explicit Rig(int gpus,
               gpu::ExecutionMode mode = gpu::ExecutionMode::kTimingOnly,
               const emb::EmbLayerSpec& layer_spec = spec(),
               const fabric::LinkParams& link = {})
      : system(config(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, link)),
        comm(system, fabric),
        runtime(system, fabric),
        layer(system, layer_spec) {}

  static gpu::SystemConfig config(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 8LL << 30;
    cfg.mode = mode;
    return cfg;
  }
  static emb::EmbLayerSpec spec() {
    emb::EmbLayerSpec s;
    s.total_tables = 16;
    s.rows_per_table = 100000;
    s.dim = 64;
    s.batch_size = 8192;
    s.min_pooling = 1;
    s.max_pooling = 64;
    s.seed = 0x919e;
    return s;
  }
};

double amortizedMs(Rig& rig, EmbeddingRetriever& retriever, int batches,
                   PipelinedCollectiveRetriever* pipelined = nullptr) {
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  const SimTime t0 = rig.system.hostNow();
  for (int b = 0; b < batches; ++b) retriever.runBatch(batch);
  const SimTime t1 =
      pipelined != nullptr ? pipelined->drain() : rig.system.syncAll();
  return (t1 - t0).toMs() / batches;
}

TEST(PipelinedTest, HidesWireTimeButKeepsUnpack) {
  const int batches = 12;
  double bulk, piped, pgas;
  core::BatchTiming bulk_timing;
  {
    Rig rig(4);
    CollectiveRetriever r(rig.layer, rig.comm);
    const auto batch =
        emb::SparseBatch::statistical(Rig::spec().batchSpec());
    bulk_timing = r.runBatch(batch);
    bulk = amortizedMs(rig, r, batches);
  }
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
    piped = amortizedMs(rig, r, batches, &r);
  }
  {
    Rig rig(4);
    PgasFusedRetriever r(rig.layer, rig.runtime, {});
    pgas = amortizedMs(rig, r, batches);
  }
  // Better than bulk-sync, worse than PGAS (the unpack survives).
  EXPECT_LT(piped, bulk);
  EXPECT_GT(piped, pgas);
  // The win is roughly the hidden wire time.
  EXPECT_NEAR(bulk - piped, bulk_timing.communication().toMs(),
              bulk_timing.communication().toMs() * 0.6);
}

TEST(PipelinedTest, DeeperPipelineNeverSlower) {
  double d2, d3;
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
    d2 = amortizedMs(rig, r, 10, &r);
  }
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 3);
    d3 = amortizedMs(rig, r, 10, &r);
  }
  EXPECT_LE(d3, d2 * 1.01);
}

TEST(PipelinedTest, ChargesExtraBufferMemory) {
  Rig bulk_rig(2);
  Rig piped_rig(2);
  const auto before_bulk = bulk_rig.system.device(0).memoryUsedBytes();
  CollectiveRetriever bulk(bulk_rig.layer, bulk_rig.comm);
  const auto bulk_bufs =
      bulk_rig.system.device(0).memoryUsedBytes() - before_bulk;
  const auto before_piped = piped_rig.system.device(0).memoryUsedBytes();
  PipelinedCollectiveRetriever piped(piped_rig.layer, piped_rig.comm, 2);
  const auto piped_bufs =
      piped_rig.system.device(0).memoryUsedBytes() - before_piped;
  EXPECT_EQ(piped_bufs, 2 * bulk_bufs);
}

TEST(PipelinedTest, RejectsFunctionalMode) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  EXPECT_THROW(PipelinedCollectiveRetriever(rig.layer, rig.comm, 2),
               InvalidArgumentError);
}

TEST(PipelinedTest, DrainIsIdempotent) {
  Rig rig(2);
  PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  r.runBatch(batch);
  const SimTime t1 = r.drain();
  const SimTime t2 = r.drain();
  EXPECT_GE(t2, t1);
  EXPECT_LT(t2 - t1, SimTime::us(100));  // just sync overhead
}

TEST(PipelinedTest, LookupWaitsForItsSlotsAllToAllBeyond64Gpus) {
  // One table per GPU, so GPU 64 sends on every batch. At depth 1 every
  // batch reuses the one slot: nothing else on GPU 64's compute stream
  // orders its next lookup after the all-to-all still reading the send
  // buffer, only the retriever's per-GPU slot wait does. A slow wire
  // keeps that all-to-all in flight well past the host's next launch.
  const int gpus = 65;
  emb::EmbLayerSpec spec = Rig::spec();
  spec.total_tables = gpus;
  spec.rows_per_table = 1000;
  spec.batch_size = gpus * 128;
  spec.max_pooling = 8;
  fabric::LinkParams slow;
  slow.bandwidth_bytes_per_sec = 1e7;
  Rig rig(gpus, gpu::ExecutionMode::kTimingOnly, spec, slow);
  const int last = gpus - 1;
  const std::string lookup = "emb_lookup_baseline.gpu" + std::to_string(last);
  std::vector<SimTime> lookup_starts;
  rig.system.setKernelObserver([&](int device, const std::string& name,
                                   SimTime start, SimTime, SimTime) {
    if (device == last && name == lookup) lookup_starts.push_back(start);
  });
  std::vector<std::pair<SimTime, SimTime>> sends;  // (wire start, delivered)
  rig.fabric.setFlowObserver([&](int src, int, std::int64_t, std::int64_t,
                                 SimTime wire_start, SimTime delivered) {
    if (src == last) sends.emplace_back(wire_start, delivered);
  });
  PipelinedCollectiveRetriever r(rig.layer, rig.comm, /*depth=*/1);
  const auto batch = emb::SparseBatch::statistical(spec.batchSpec());
  for (int b = 0; b < 3; ++b) r.runBatch(batch);
  r.drain();
  ASSERT_EQ(lookup_starts.size(), 3u);
  // Batch 0's all-to-all reads GPU 64's send buffer before batch 1's
  // lookup may overwrite it: every send already on the wire when that
  // lookup starts has landed by then.
  const SimTime second = lookup_starts[1];
  int earlier = 0;
  SimTime landed = SimTime::zero();
  for (const auto& [wire_start, delivered] : sends) {
    if (wire_start >= second) continue;
    ++earlier;
    landed = std::max(landed, delivered);
  }
  EXPECT_EQ(earlier, gpus - 1);
  EXPECT_LE(landed, second);
}

}  // namespace
}  // namespace pgasemb::core
