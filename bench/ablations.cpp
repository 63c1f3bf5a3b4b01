// Ablations A1, A2, A5–A10: one design knob of the PGAS fused scheme (or
// of its strongest baseline) swept at a time, on the weak-scaling config.
#include <memory>

#include "bench_common.hpp"
#include "core/pgas_retriever.hpp"
#include "emb/input_partition.hpp"
#include "emb/lookup_kernel.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/table.hpp"

namespace pgasemb::bench {

// A1: pooling-factor sweep. The pooling factor sets the compute-to-
// communication ratio: comm volume is fixed (one pooled vector per
// (table, sample)) while compute grows with the bag size. PGAS's
// advantage therefore *grows* with pooling (more window to hide the same
// traffic), and at very small pooling the fused kernel becomes
// drain-bound.
int ablationPooling(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 20, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  addRetrieversFlag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto retrievers = retrieverList(cli);

  printHeader("Ablation: pooling factor vs overlap headroom");

  const std::string ref_key = trace::runKey(retrievers.front());
  const std::string treat_key = trace::runKey(retrievers.back());
  ConsoleTable table({"max pooling", ref_key + " ms", treat_key + " ms",
                      "speedup", treat_key + " comm/compute"});
  for (const int pool : {2, 8, 32, 128, 512}) {
    auto cfg = engine::weakScalingConfig(static_cast<int>(cli.getInt("gpus")));
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.layer.max_pooling = pool;
    engine::ScenarioRunner runner(cfg);
    const auto runs = runner.runAll(retrievers);
    const auto& base = runs.front().result;
    const auto& pgas = runs.back().result;
    // Ratio of wire drain time to fused kernel time (per batch, approx):
    // each GPU's share of the wire bytes at raw link bandwidth.
    const double wire_ms = static_cast<double>(pgas.total_wire_bytes) /
                           cfg.num_gpus / cfg.link.bandwidth_bytes_per_sec *
                           1e3 / pgas.stats.batches;
    table.addRow({std::to_string(pool),
                  ConsoleTable::num(base.avgBatchMs(), 3),
                  ConsoleTable::num(pgas.avgBatchMs(), 3),
                  timesCell(base.avgBatchMs() / pgas.avgBatchMs()),
                  ConsoleTable::num(wire_ms / pgas.avgBatchMs(), 3)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(comm volume is pooling-independent; compute scales with "
         "pooling, so overlap headroom grows with the bag size)\n");
  return 0;
}

// A2: per-message header overhead (paper §IV-A2d): "the overhead only
// increases very slightly [because] the PGAS fused implementation is not
// bandwidth-limited as long as the communication can be done within the
// computation period." Wire inefficiency grows with the header; runtime
// barely moves until the drain no longer fits in the compute window.
int ablationHeader(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 10, "batches per configuration");
  if (!cli.parse(argc, argv)) return 0;

  printHeader("Ablation: per-message header bytes vs PGAS fused runtime");

  ConsoleTable table({"header (B)", "wire efficiency", "pgas ms/batch",
                      "slowdown vs 0 B"});
  double base_ms = 0.0;
  for (const int header : {0, 16, 32, 64, 128, 256, 1024}) {
    auto cfg = engine::weakScalingConfig(4);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.link.header_bytes = header;
    const auto r = engine::ScenarioRunner(cfg).run("pgas_fused");
    if (header == 0) base_ms = r.avgBatchMs();
    const double eff = 256.0 / (256.0 + header);
    table.addRow({std::to_string(header), ConsoleTable::num(eff, 3),
                  ConsoleTable::num(r.avgBatchMs(), 3),
                  timesCell(r.avgBatchMs() / base_ms, 3)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(wire efficiency halves at 256 B headers, yet runtime barely "
         "moves while the drain still fits inside compute — the paper's "
         "point)\n");
  return 0;
}

// A5: table-wise vs row-wise sharding under PGAS fused (paper §V,
// RecShard [6]). Row-wise stripes every table's rows across GPUs:
// perfect load balance even with skewed tables, but every GPU emits a
// *partial* pooled vector per (table, sample), multiplying the
// communicated volume by P and turning stores into remote atomic adds.
int sharding(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 10, "batches per configuration");
  if (!cli.parse(argc, argv)) return 0;

  printHeader("Ablation: table-wise vs row-wise sharding (PGAS fused)");

  ConsoleTable table({"GPUs", "table-wise ms", "row-wise ms",
                      "row-wise volume factor"});
  for (int gpus = 2; gpus <= 4; ++gpus) {
    auto cfg = engine::weakScalingConfig(gpus);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    const auto tw = engine::ScenarioRunner(cfg).run("pgas_fused");
    auto rw_cfg = cfg;
    rw_cfg.sharding = emb::ShardingScheme::kRowWise;
    const auto rw = engine::ScenarioRunner(rw_cfg).run("pgas_fused");
    table.addRow({std::to_string(gpus), ConsoleTable::num(tw.avgBatchMs(), 3),
                  ConsoleTable::num(rw.avgBatchMs(), 3),
                  timesCell(static_cast<double>(rw.total_wire_bytes) /
                            static_cast<double>(std::max<std::int64_t>(
                                1, tw.total_wire_bytes)))});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(row-wise balances skew but multiplies PGAS traffic by ~P "
         "partial sums; the paper uses table-wise and defers row-wise "
         "to future work)\n");
  return 0;
}

// A6: batch-size sweep (paper §III-A item 3): "With small batch sizes,
// the overhead of CUDA kernel synchronization can become significant".
// At small batches the baseline's fixed control-path costs (launch,
// sync, collective trigger) dominate, so the PGAS speedup is
// overhead-driven; at large batches it is overlap-driven.
int ablationBatch(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 20, "batches per configuration");
  addRetrieversFlag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto retrievers = retrieverList(cli);

  printHeader("Ablation: batch size vs latency-limited overheads");

  const std::string ref_key = trace::runKey(retrievers.front());
  const std::string treat_key = trace::runKey(retrievers.back());
  ConsoleTable table({"batch", ref_key + " ms", treat_key + " ms", "speedup",
                      ref_key + " sync+unpack share"});
  for (const std::int64_t batch : {64, 256, 1024, 4096, 16384, 65536}) {
    auto cfg = engine::weakScalingConfig(4);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.layer.batch_size = batch;
    engine::ScenarioRunner runner(cfg);
    const auto runs = runner.runAll(retrievers);
    const auto& base = runs.front().result;
    const auto& treat = runs.back().result;
    table.addRow(
        {std::to_string(batch), ConsoleTable::num(base.avgBatchMs(), 3),
         ConsoleTable::num(treat.avgBatchMs(), 3),
         timesCell(base.avgBatchMs() / treat.avgBatchMs()),
         ConsoleTable::num(base.avgSyncUnpackMs() / base.avgBatchMs(),
                           2)});
  }
  printf("\n%s\n", table.render().c_str());
  return 0;
}

namespace {

enum class Topo { kPairwise, kNvSwitch, kRing };

/// A7's rig is built by hand: SystemBuilder only assembles the pairwise
/// NVLink and multi-node topologies.
double overlapBatchMs(int gpus, int slices, Topo topo, int batches) {
  gpu::SystemConfig sys_cfg;
  sys_cfg.num_gpus = gpus;
  sys_cfg.mode = gpu::ExecutionMode::kTimingOnly;
  gpu::MultiGpuSystem system(sys_cfg);

  std::unique_ptr<fabric::Topology> t;
  fabric::LinkParams pair_link;  // defaults: 48 GB/s per pair direction
  switch (topo) {
    case Topo::kPairwise:
      t = std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, pair_link);
      break;
    case Topo::kNvSwitch: {
      fabric::LinkParams port = pair_link;
      // One port carries what (gpus-1) pair links would: same aggregate.
      port.bandwidth_bytes_per_sec *= (gpus - 1);
      t = std::make_unique<fabric::NvSwitchTopology>(gpus, port);
      break;
    }
    case Topo::kRing:
      t = std::make_unique<fabric::RingTopology>(gpus, pair_link);
      break;
  }
  fabric::Fabric fabric(std::move(t));
  pgas::PgasRuntime runtime(system, fabric);
  const auto spec = emb::weakScalingLayerSpec(gpus);
  emb::ShardedEmbeddingLayer layer(system, spec);
  core::PgasRetrieverOptions opts;
  opts.slices = slices;
  core::PgasFusedRetriever pgas(layer, runtime, opts);
  const auto batch = emb::SparseBatch::statistical(spec.batchSpec());
  SimTime total = SimTime::zero();
  for (int b = 0; b < batches; ++b) total += pgas.runBatch(batch).total;
  return total.toMs() / batches;
}

}  // namespace

// A7: overlap granularity — how finely the fused kernel's one-sided
// writes are spread over its timeline. `slices = 1` degenerates to "send
// everything when the kernel ends" (bulk-synchronous with no unpack:
// isolates the overlap benefit from the unpack-elimination benefit);
// high slice counts approach the paper's continuous fine-grained
// overlap. Port-shared fabrics (NVSwitch, ring) change how much
// spreading matters.
int ablationOverlap(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 5, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  if (!cli.parse(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));

  printHeader("Ablation: in-kernel message granularity (overlap) x topology");

  ConsoleTable table({"slices", "pairwise NVLink ms", "NVSwitch ms",
                      "ring ms"});
  for (const int slices : {1, 2, 4, 16, 64, 256, 1024}) {
    table.addRow(
        {std::to_string(slices),
         ConsoleTable::num(
             overlapBatchMs(gpus, slices, Topo::kPairwise, batches), 3),
         ConsoleTable::num(
             overlapBatchMs(gpus, slices, Topo::kNvSwitch, batches), 3),
         ConsoleTable::num(overlapBatchMs(gpus, slices, Topo::kRing, batches),
                           3)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(slices=1 defers all writes to kernel end — bulk-synchronous "
         "without\n unpack; the gap to high slice counts is the pure "
         "overlap benefit.\n The ring pays multi-hop store-and-forward; "
         "spreading matters more there.)\n");
  return 0;
}

// A8: sparse-input partitioning cost (paper §V). Table-wise sharding
// routes whole tables — the host cost is trivial. Row-wise sharding must
// hash-route every raw index on the CPU, a significant serial fraction
// of the batch. The paper's proposed fix — fusing partitioning into the
// lookup kernel — trades that host time for extra (parallel,
// memory-bound) kernel reads.
int inputPartition(CliParser& cli, int argc, char** argv) {
  cli.addInt("gpus", 4, "GPU count");
  if (!cli.parse(argc, argv)) return 0;

  printHeader("Ablation: sparse-input partitioning (paper SV)");

  engine::ExperimentConfig cfg =
      engine::weakScalingConfig(static_cast<int>(cli.getInt("gpus")));
  const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());

  ConsoleTable table({"scheme", "host partition", "extra kernel read",
                      "share of EMB batch"});
  struct Case {
    const char* name;
    emb::ShardingScheme scheme;
    bool fused;
  };
  for (const Case c : {Case{"table-wise, host",
                            emb::ShardingScheme::kTableWise, false},
                       Case{"row-wise,   host",
                            emb::ShardingScheme::kRowWise, false},
                       Case{"row-wise,  fused",
                            emb::ShardingScheme::kRowWise, true}}) {
    cfg.sharding = c.scheme;
    engine::SystemBuilder builder(cfg);
    const auto& layer = builder.layer();
    const auto& cost_model = builder.system().costModel();
    const auto cost = emb::inputPartitionCost(layer, batch, c.fused);
    // EMB batch time reference: lookup compute on GPU 0.
    const SimTime emb_time =
        emb::lookupComputeTime(layer, layer.lookupWork(batch, 0));
    const double extra_ms =
        cost.extra_kernel_bytes_per_gpu /
        (cost_model.hbm_bandwidth * cost_model.gather_efficiency) * 1e3;
    table.addRow(
        {c.name, cost.host_time.toString(),
         ConsoleTable::num(extra_ms, 3) + " ms",
         ConsoleTable::num(
             (cost.host_time.toMs() + extra_ms) / emb_time.toMs() * 100.0,
             1) +
             "%"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(row-wise host routing hashes every raw index serially; fusing "
         "it\n into the kernel converts ~ms of serial CPU time into "
         "parallel reads)\n");
  return 0;
}

// A9: skewed ("hot") sparse features and load-balanced table sharding
// (RecShard [6]). Real features follow a power law: a few have huge
// pooling factors. With naive equal-count table sharding the GPU that
// owns the hot tables becomes a straggler — every other GPU waits at the
// layout-conversion barrier. Weighted contiguous partitioning (balance
// expected gather rows) restores the balance for both schemes.
int skew(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 10, "batches per configuration");
  addRetrieversFlag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto retrievers = retrieverList(cli);

  printHeader("Ablation: power-law feature skew + RecShard-style balancing");

  auto base_cfg = engine::weakScalingConfig(4);
  base_cfg.num_batches = static_cast<int>(cli.getInt("batches"));
  // Smaller tables: balancing moves whole tables between GPUs, so the
  // cold-table GPUs hold several times more tables than the naive split.
  base_cfg.layer.rows_per_table = 200'000;
  // Zipf-ish pooling skew: table t draws bags of up to ~256/(1+t/8).
  base_cfg.layer.table_max_pooling.clear();
  for (std::int64_t t = 0; t < base_cfg.layer.total_tables; ++t) {
    const int hot = static_cast<int>(256 / (1 + t / 8));
    base_cfg.layer.table_max_pooling.push_back(std::max(2, hot));
  }

  ConsoleTable table({"sharding", "baseline ms", "pgas ms",
                      "pgas speedup", "max/min GPU gather rows"});
  for (const bool balanced : {false, true}) {
    auto cfg = base_cfg;
    cfg.layer.balance_tables = balanced;
    engine::ScenarioRunner runner(cfg);
    const auto base = runner.run(retrievers.front());
    const auto pgas = runner.run(retrievers.back());

    // Imbalance metric straight from the workload descriptors.
    const auto& layer = runner.builder().layer();
    const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());
    double max_rows = 0, min_rows = 1e30;
    for (int g = 0; g < cfg.num_gpus; ++g) {
      const double rows = layer.lookupWork(batch, g).gathered_rows;
      max_rows = std::max(max_rows, rows);
      min_rows = std::min(min_rows, rows);
    }

    table.addRow({balanced ? "balanced (RecShard-style)" : "naive blocks",
                  ConsoleTable::num(base.avgBatchMs(), 3),
                  ConsoleTable::num(pgas.avgBatchMs(), 3),
                  timesCell(base.avgBatchMs() / pgas.avgBatchMs()),
                  ConsoleTable::num(max_rows / min_rows, 2)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(the straggler GPU bounds both schemes — the layout conversion "
         "is a\n batch-wide barrier; balancing recovers the loss without "
         "row-wise's\n volume multiplication)\n");
  return 0;
}

// A10: the strongest software-pipelined baseline. Could the baseline
// match PGAS by double-buffering batches — overlapping batch i's
// all-to-all (on a side stream) with batch i+1's lookup? Partially:
// inter-batch pipelining hides the wire time, but the unpack pass, the
// per-batch control path, and the extra buffer memory remain. PGAS hides
// communication *within* one batch — no added latency, no extra copies
// of the activation buffers.
int pipelined(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 50, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  cli.addInt("depth", 2, "pipeline depth (in-flight batches)");
  addRetrieversFlag(cli, "nccl_collective,nccl_pipelined,pgas_fused");
  addSimsanFlag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int depth = static_cast<int>(cli.getInt("depth"));

  printHeader("Ablation: double-buffered baseline (inter-batch pipelining)");

  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  // Leave room for the pipeline's extra buffer sets.
  cfg.layer.total_tables = 48LL * gpus;
  cfg.num_batches = static_cast<int>(cli.getInt("batches"));
  cfg.pipeline_depth = depth;
  applySimsanFlags(cli, cfg);

  engine::ScenarioRunner runner(cfg);
  const auto runs = runner.runAll(retrieverList(cli));

  const std::string ref_key = trace::runKey(runs.front().retriever);
  ConsoleTable table(
      {"scheme", "ms/batch", "speedup vs " + ref_key, "extra buffers"});
  const double ref_ms = runs.front().result.avgBatchMs();
  for (const auto& run : runs) {
    const bool is_pipelined = run.retriever == "nccl_pipelined";
    std::string scheme = trace::runStyle(run.retriever).display;
    if (is_pipelined) scheme += " d=" + std::to_string(depth);
    const double ms = run.result.avgBatchMs();
    table.addRow({scheme, ConsoleTable::num(ms, 3),
                  ms > 0.0 ? timesCell(ref_ms / ms) : "-",
                  (is_pipelined ? std::to_string(depth) : "1") + "x"});
  }
  printf("\n%s\n", table.render().c_str());
  for (const auto& run : runs) {
    if (!run.result.sanitizer) continue;
    printf("simsan %-16s %s\n", run.retriever.c_str(),
           run.result.sanitizer->report().c_str());
  }
  printf("(pipelining hides the wire time behind the next batch's compute "
         "but\n keeps the unpack pass and multiplies activation buffers; "
         "PGAS hides\n communication inside the same batch and has no "
         "unpack at all)\n");
  return 0;
}

}  // namespace pgasemb::bench
