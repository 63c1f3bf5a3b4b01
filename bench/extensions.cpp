// Extensions beyond the paper's measurements: its §V future work (the
// async aggregator, the EMB backward pass, a full training step) and
// the hot-row replica cache sweep.
#include <memory>

#include "bench_common.hpp"
#include "dlrm/backward.hpp"
#include "dlrm/trainer.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace pgasemb::bench {

// A3 (paper §V + Chen et al. SC'22 [7]): the asynchronous communication
// aggregator on a simulated MULTI-NODE system. Inter-node links have
// higher latency, lower bandwidth, and a message-rate ceiling, so
// un-aggregated 256-byte stores collapse the NIC's message rate.
// `aggregator.store(...)` batches them into large messages at a small
// staging cost. Sweeps the aggregation size and the max-wait timeout.
int aggregator(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 10, "batches per configuration");
  cli.addDouble("nic-gbps", 25.0, "inter-node NIC bandwidth, GB/s");
  cli.addDouble("nic-msg-rate", 10e6, "NIC message-rate ceiling, msg/s");
  if (!cli.parse(argc, argv)) return 0;

  printHeader("Async aggregator on multi-node PGAS embedding retrieval");

  auto make_cfg = [&](bool use_agg, std::int64_t agg_bytes,
                      SimTime max_wait) {
    engine::ExperimentConfig cfg;
    cfg.layer = emb::weakScalingLayerSpec(4);
    cfg.layer.total_tables = 64;  // moderate size for the sweep
    cfg.num_gpus = 4;
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    applyInterNodeLink(cfg, 2);
    cfg.inter_node_link.bandwidth_bytes_per_sec =
        cli.getDouble("nic-gbps") * 1e9;
    cfg.inter_node_link.max_messages_per_sec =
        cli.getDouble("nic-msg-rate");
    if (use_agg) cfg.aggregator = pgas::AggregatorParams{agg_bytes, max_wait};
    return cfg;
  };

  const auto raw = engine::ScenarioRunner(make_cfg(false, 0, SimTime::zero()))
                       .run("pgas_fused");
  printf("\nun-aggregated 256 B stores: %.3f ms/batch, %lld messages\n",
         raw.avgBatchMs(), static_cast<long long>(raw.total_wire_messages));

  ConsoleTable table({"agg size", "max wait", "ms/batch", "speedup",
                      "messages", "msg reduction"});
  for (const std::int64_t kb : {4, 16, 64, 256, 1024}) {
    const auto r =
        engine::ScenarioRunner(make_cfg(true, kb * 1024, SimTime::us(50.0)))
            .run("pgas_fused");
    table.addRow({std::to_string(kb) + " KiB", "50 us",
                  ConsoleTable::num(r.avgBatchMs(), 3),
                  timesCell(raw.avgBatchMs() / r.avgBatchMs()),
                  std::to_string(r.total_wire_messages),
                  timesCell(static_cast<double>(raw.total_wire_messages) /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, r.total_wire_messages)),
                            0)});
  }
  // Max-wait sweep at a fixed 64 KiB aggregation size.
  for (const double wait_us : {5.0, 500.0}) {
    const auto r =
        engine::ScenarioRunner(make_cfg(true, 64 * 1024, SimTime::us(wait_us)))
            .run("pgas_fused");
    table.addRow({"64 KiB", ConsoleTable::num(wait_us, 0) + " us",
                  ConsoleTable::num(r.avgBatchMs(), 3),
                  timesCell(raw.avgBatchMs() / r.avgBatchMs()),
                  std::to_string(r.total_wire_messages), "-"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(the paper's proposed change: sum.store(out[idx], pe) -> "
         "aggregator.store(out[idx], sum, pe))\n");
  return 0;
}

// A4 (paper §V future work): the EMB-layer BACKWARD pass. Baseline:
// gradient kernel -> all-to-all of per-(table, sample) grads ->
// scatter-add -> (P-1) ring-shift rounds with per-round sync -> SGD
// apply. PGAS: one fused kernel pushing remote atomic adds, quiet,
// apply. The paper predicts a larger win than the forward pass because
// (a) backward volume is ~pooling-factor larger and (b) the multi-round
// synchronization disappears.
int backward(CliParser& cli, int argc, char** argv) {
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 20, "batches per configuration");
  addCoalesceFlag(cli);
  if (!cli.parse(argc, argv)) return 0;

  printHeader(
      "EMB backward pass (future-work extension): gradient push + "
      "aggregation");

  engine::ExperimentConfig cfg;
  cfg.layer = emb::weakScalingLayerSpec(1);
  cfg.layer.total_tables = 64;  // fixed total; strong-scaling style sweep
  applyCoalesceFlag(cli, cfg);
  const int batches = static_cast<int>(cli.getInt("batches"));
  const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());

  ConsoleTable table({"GPUs", "collective (ms)", "pgas atomics (ms)",
                      "speedup", "rounds removed"});
  for (int gpus = 2; gpus <= cli.getInt("max-gpus"); ++gpus) {
    cfg.num_gpus = gpus;
    engine::SystemBuilder builder(cfg);
    dlrm::EmbBackwardEngine engine(builder.layer(), builder.comm(),
                                   builder.runtime(), 0.01f);

    SimTime collective = SimTime::zero(), pgas_t = SimTime::zero();
    for (int b = 0; b < batches; ++b) {
      collective +=
          engine.runBatch(batch, dlrm::BackwardScheme::kCollective).total;
    }
    for (int b = 0; b < batches; ++b) {
      pgas_t +=
          engine.runBatch(batch, dlrm::BackwardScheme::kPgasAtomics).total;
    }
    const double c_ms = collective.toMs() / batches;
    const double p_ms = pgas_t.toMs() / batches;
    table.addRow({std::to_string(gpus), ConsoleTable::num(c_ms, 3),
                  ConsoleTable::num(p_ms, 3),
                  timesCell(c_ms / p_ms),
                  std::to_string(gpus - 1)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(paper SV: PGAS replaces the multi-round collective shifts and "
         "their\n per-round synchronization with overlapped remote atomic adds)\n");
  return 0;
}

// A full DLRM TRAINING step at paper scale (forward + MLP
// backward/all-reduce + EMB backward), combining both of the paper's
// axes: the forward retrieval scheme and the backward gradient exchange
// scheme.
int training(CliParser& cli, int argc, char** argv) {
  cli.addInt("batches", 10, "steps per configuration");
  cli.addInt("gpus", 4, "GPU count");
  addCoalesceFlag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int steps = static_cast<int>(cli.getInt("batches"));

  printHeader("Full training step (paper SV realized end-to-end)");

  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  applyCoalesceFlag(cli, cfg);
  const emb::EmbLayerSpec& spec = cfg.layer;
  dlrm::DlrmConfig model_cfg;
  model_cfg.dense_dim = 13;
  model_cfg.top_mlp = {512, 256, spec.dim};
  model_cfg.bottom_mlp = {512, 256, 1};

  ConsoleTable table({"forward", "backward", "step ms", "emb fwd ms",
                      "emb bwd ms", "mlp bwd ms"});
  double base_ms = 0.0;
  for (const bool pgas_fwd : {false, true}) {
    for (const bool pgas_bwd : {false, true}) {
      engine::SystemBuilder builder(cfg);
      dlrm::DlrmModel model(model_cfg, builder.layer());
      const auto retriever = core::RetrieverRegistry::instance().create(
          pgas_fwd ? "pgas_fused" : "nccl_collective", builder.context());
      dlrm::DlrmTrainer trainer(
          model, *retriever, builder.comm(), builder.runtime(), 0.01f,
          pgas_bwd ? dlrm::BackwardScheme::kPgasAtomics
                   : dlrm::BackwardScheme::kCollective);
      const auto sparse = emb::SparseBatch::statistical(spec.batchSpec());
      Rng rng(1);
      const auto dense = dlrm::DenseBatch::generateUniform(
          spec.batch_size, model_cfg.dense_dim, rng);
      SimTime total = SimTime::zero(), fwd = SimTime::zero(),
              bwd = SimTime::zero(), mlp = SimTime::zero();
      for (int i = 0; i < steps; ++i) {
        const auto r = trainer.step(dense, sparse);
        total += r.total;
        fwd += r.emb_forward.total;
        bwd += r.emb_backward.total;
        mlp += r.mlp_backward_time;
      }
      const double ms = total.toMs() / steps;
      if (!pgas_fwd && !pgas_bwd) base_ms = ms;
      table.addRow({pgas_fwd ? "pgas" : "collective",
                    pgas_bwd ? "pgas atomics" : "collective rounds",
                    ConsoleTable::num(ms, 3),
                    ConsoleTable::num(fwd.toMs() / steps, 3),
                    ConsoleTable::num(bwd.toMs() / steps, 3),
                    ConsoleTable::num(mlp.toMs() / steps, 3)});
    }
  }
  printf("\n%s\n", table.render().c_str());
  printf("full-PGAS training step speedup over full-collective: see "
         "rows 1 vs 4 (baseline %.3f ms)\n", base_ms);
  return 0;
}

// Hot-row replica cache sweep: skew (Zipf alpha) x cache capacity x
// retriever on the cache-serving configuration (single-id Zipf lookups
// over a PCIe-class inference node — the HugeCTR-HPS-style deployment
// the cache targets). For each (alpha, retriever) the capacity-0 run is
// the reference; every cached run reports its hit rate, the exchange
// bytes the served bags saved, and the speedup over that reference.
// Expected shape: flat at alpha 0 (the uniform top-C mass is tiny),
// growing sharply with skew — at alpha ~1 a few percent of rows absorb
// most lookups, so the exchange all but disappears.
int cache(CliParser& cli, int argc, char** argv) {
  cli.addInt("gpus", 4, "GPU count");
  cli.addInt("batches", 20, "inference batches per configuration");
  cli.addString("csv", "cache_sweep.csv", "output CSV path (empty = none)");
  addRetrieversFlag(cli, "nccl_collective,pgas_fused,nccl_pipelined");
  addCoalesceFlag(cli);
  if (!cli.parse(argc, argv)) return 0;

  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));
  const auto retrievers = retrieverList(cli);

  const double alphas[] = {0.0, 0.6, 0.9, 1.1};
  // Capacities as fractions of the raw-index domain; 0 = cache off.
  const double fractions[] = {0.0, 0.01, 0.05, 0.10};

  const auto base = engine::cacheServingConfig(gpus);
  const auto rows = static_cast<std::int64_t>(base.layer.index_space);
  printHeader("Replica-cache sweep: " +
              std::to_string(base.layer.total_tables) + " tables x " +
              std::to_string(rows) + " rows, single-id lookups, " +
              std::to_string(gpus) + " GPUs, PCIe-class fabric");

  // Rows are printed (and written) as each run finishes.
  const std::string csv_path = cli.getString("csv");
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{
                      "alpha", "capacity_rows", "retriever", "hit_rate",
                      "saved_bytes_per_batch", "avg_ms", "speedup_vs_cap0"});
  }
  printf("\n%-6s %-10s %-16s %-9s %-14s %-10s %s\n", "alpha", "cap_rows",
         "retriever", "hit%", "saved MB/b", "ms/batch", "speedup");
  for (const double alpha : alphas) {
    // Per-retriever reference time at capacity 0.
    std::vector<double> ref_ms;
    for (const double frac : fractions) {
      engine::ExperimentConfig cfg = base;
      cfg.num_batches = batches;
      cfg.layer.zipf_alpha = alpha;
      cfg.cache_rows =
          static_cast<std::int64_t>(frac * static_cast<double>(rows));
      applyCoalesceFlag(cli, cfg);
      engine::ScenarioRunner runner(cfg);
      const auto runs = runner.runAll(retrievers);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const auto& result = runs[r].result;
        const double ms = result.avgBatchMs();
        if (frac == 0.0) ref_ms.push_back(ms);
        const double batches_d = static_cast<double>(result.stats.batches);
        const double saved =  // per batch
            batches_d > 0.0 ? result.cacheSavedBytes() / batches_d : 0.0;
        const double speedup = ms > 0.0 ? ref_ms[r] / ms : 0.0;
        printf("%-6.1f %-10lld %-16s %-9.1f %-14.2f %-10.3f %.2fx\n", alpha,
               static_cast<long long>(cfg.cache_rows),
               runs[r].retriever.c_str(), result.cacheHitRate() * 100.0,
               saved / 1e6, ms, speedup);
        if (csv) {
          csv->addRow({ConsoleTable::num(alpha, 1),
                       std::to_string(cfg.cache_rows), runs[r].retriever,
                       ConsoleTable::num(result.cacheHitRate(), 4),
                       ConsoleTable::num(saved, 0), ConsoleTable::num(ms, 4),
                       ConsoleTable::num(speedup, 3)});
        }
      }
    }
  }
  if (csv) {
    csv->close();
    printf("\nwrote %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace pgasemb::bench
