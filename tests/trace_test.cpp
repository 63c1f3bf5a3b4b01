// Tests for the engine harness and reporters — the machinery behind
// every benchmark binary. These double as coarse regression tests on the
// paper-facing result shapes.
#include <gtest/gtest.h>

#include "engine/scenario_runner.hpp"
#include "trace/report.hpp"
#include "util/expect.hpp"

namespace pgasemb::trace {
namespace {

engine::ExperimentConfig quickWeak(int gpus, int batches = 3) {
  auto cfg = engine::weakScalingConfig(gpus);
  cfg.num_batches = batches;
  return cfg;
}

engine::ExperimentResult run(const engine::ExperimentConfig& cfg,
                             const std::string& retriever) {
  return engine::ScenarioRunner(cfg).run(retriever);
}

TEST(ExperimentTest, PaperConfigsMatchSpec) {
  const auto weak = engine::weakScalingConfig(4);
  EXPECT_EQ(weak.layer.total_tables, 256);
  EXPECT_EQ(weak.layer.rows_per_table, 1'000'000);
  EXPECT_EQ(weak.layer.dim, 64);
  EXPECT_EQ(weak.layer.batch_size, 16384);
  EXPECT_EQ(weak.layer.max_pooling, 128);
  const auto strong = engine::strongScalingConfig(3);
  EXPECT_EQ(strong.layer.total_tables, 96);
  EXPECT_EQ(strong.layer.max_pooling, 32);
  EXPECT_EQ(strong.num_gpus, 3);
}

TEST(ExperimentTest, RunsBothKindsAndAccumulates) {
  const auto cfg = quickWeak(2);
  const auto base = run(cfg, "nccl_collective");
  const auto pgas = run(cfg, "pgas_fused");
  EXPECT_EQ(base.stats.batches, 3);
  EXPECT_EQ(pgas.stats.batches, 3);
  EXPECT_EQ(base.per_batch.size(), 3u);
  EXPECT_GT(base.avgBatchMs(), pgas.avgBatchMs());
  EXPECT_GT(base.avgCommunicationMs(), 0.0);
  EXPECT_GT(base.avgSyncUnpackMs(), 0.0);
}

TEST(ExperimentTest, WeakScalingSpeedupNearPaper) {
  // Regression guard on the headline reproduction: 2-GPU weak-scaling
  // speedup within 15% of the paper's 2.10x.
  const auto cfg = quickWeak(2, 5);
  const auto base = run(cfg, "nccl_collective");
  const auto pgas = run(cfg, "pgas_fused");
  const double speedup = base.avgBatchMs() / pgas.avgBatchMs();
  EXPECT_NEAR(speedup, 2.10, 0.32);
}

TEST(ExperimentTest, BaselineWeakScalingFactorNearPaper) {
  // Paper Fig 5: the baseline's 2-GPU weak-scaling factor is ~0.46.
  const auto one = run(quickWeak(1), "nccl_collective");
  const auto two = run(quickWeak(2), "nccl_collective");
  const double factor = one.avgBatchMs() / two.avgBatchMs();
  EXPECT_NEAR(factor, 0.46, 0.08);
}

TEST(ExperimentTest, PgasWeakScalingNearIdeal) {
  const auto one = run(quickWeak(1), "pgas_fused");
  const auto four = run(quickWeak(4), "pgas_fused");
  EXPECT_GT(one.avgBatchMs() / four.avgBatchMs(), 0.95);
}

TEST(ExperimentTest, StrongScalingComputeFlattensBeyondTwoGpus) {
  auto c2 = engine::strongScalingConfig(2);
  auto c4 = engine::strongScalingConfig(4);
  c2.num_batches = c4.num_batches = 3;
  const auto p2 = run(c2, "pgas_fused");
  const auto p4 = run(c4, "pgas_fused");
  // Latency-limited: no speedup from 2 to 4 GPUs (paper §IV-B).
  EXPECT_NEAR(p4.avgBatchMs() / p2.avgBatchMs(), 1.0, 0.1);
}

TEST(ExperimentTest, NcuThroughputNearPaperAtTwoGpuStrong) {
  auto cfg = engine::strongScalingConfig(2);
  cfg.num_batches = 1;
  const auto r = run(cfg, "pgas_fused");
  EXPECT_NEAR(r.lookup_memory_throughput, 0.57, 0.12);
  EXPECT_NEAR(r.lookup_compute_throughput, 0.38, 0.12);
}

TEST(ExperimentTest, CommVolumeSeriesSpreadForPgasSpikedForBaseline) {
  auto cfg = quickWeak(2, 1);
  cfg.counter_bucket = SimTime::us(250.0);
  const auto pgas = run(cfg, "pgas_fused");
  const auto base = run(cfg, "nccl_collective");
  auto nonzero = [](const std::vector<double>& v) {
    int n = 0;
    for (double x : v) {
      if (x > 0) ++n;
    }
    return n;
  };
  // PGAS traffic spans the compute window; baseline bursts at the end.
  EXPECT_GT(nonzero(pgas.wire_bytes_over_time),
            nonzero(base.wire_bytes_over_time) * 2);
  // Same total volume either way.
  EXPECT_EQ(pgas.total_wire_bytes, base.total_wire_bytes);
}

TEST(ExperimentTest, FunctionalModeRunsSmallConfig) {
  engine::ExperimentConfig cfg;
  cfg.layer = emb::tinyLayerSpec();
  cfg.num_gpus = 2;
  cfg.num_batches = 2;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 256 << 20;
  const auto base = run(cfg, "nccl_collective");
  const auto pgas = run(cfg, "pgas_fused");
  EXPECT_EQ(base.stats.batches, 2);
  EXPECT_EQ(pgas.stats.batches, 2);
}

TEST(ExperimentTest, MultiNodeConfigRoutesThroughNics) {
  engine::ExperimentConfig cfg;
  cfg.layer = emb::tinyLayerSpec();
  cfg.layer.batch_size = 4096;
  cfg.layer.rows_per_table = 10000;
  cfg.num_gpus = 4;
  cfg.num_nodes = 2;
  cfg.num_batches = 1;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5);
  cfg.inter_node_link.max_messages_per_sec = 10e6;
  const auto single = [&] {
    auto c = cfg;
    c.num_nodes = 0;
    return run(c, "pgas_fused");
  }();
  const auto multi = run(cfg, "pgas_fused");
  EXPECT_GT(multi.avgBatchMs(), single.avgBatchMs());
}

TEST(ExperimentTest, AggregatorHelpsOnMultiNode) {
  engine::ExperimentConfig cfg;
  cfg.layer = emb::tinyLayerSpec();
  cfg.layer.batch_size = 16384;
  cfg.layer.total_tables = 16;
  cfg.layer.rows_per_table = 10000;
  cfg.num_gpus = 4;
  cfg.num_nodes = 2;
  cfg.num_batches = 1;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5);
  cfg.inter_node_link.max_messages_per_sec = 10e6;
  const auto raw = run(cfg, "pgas_fused");
  auto agg_cfg = cfg;
  agg_cfg.aggregator = pgas::AggregatorParams{128 * 1024};
  const auto agg = run(agg_cfg, "pgas_fused");
  EXPECT_LE(agg.avgBatchMs(), raw.avgBatchMs());
  EXPECT_LT(agg.total_wire_messages, raw.total_wire_messages);
}

TEST(ExperimentTest, FullyDeterministicAcrossRuns) {
  // The discrete-event simulation must be bit-reproducible: same config
  // and seed, same everything — timings, wire bytes, traces. Note the
  // two runs below share one ScenarioRunner: reset() puts the rebuilt
  // system on a fresh clock.
  auto cfg = quickWeak(3, 2);
  engine::ScenarioRunner runner(cfg);
  const auto a = runner.run("pgas_fused");
  const auto b = runner.run("pgas_fused");
  EXPECT_EQ(a.stats.total, b.stats.total);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.total_wire_messages, b.total_wire_messages);
  EXPECT_EQ(a.wire_bytes_over_time, b.wire_bytes_over_time);
  const auto c = runner.run("nccl_collective");
  const auto d = runner.run("nccl_collective");
  EXPECT_EQ(c.stats.total, d.stats.total);
  EXPECT_EQ(c.stats.comm_phase, d.stats.comm_phase);
}

TEST(ReportTest, SpeedupTableAndChartsRender) {
  std::vector<ScalingPoint> points;
  for (int g = 1; g <= 2; ++g) {
    auto cfg = quickWeak(g, 1);
    engine::ScenarioRunner runner(cfg);
    ScalingPoint p;
    p.gpus = g;
    p.runs = runner.runAll({"nccl_collective", "pgas_fused"});
    points.push_back(std::move(p));
  }
  const auto table = renderSpeedupTable(points);
  EXPECT_NE(table.find("2 GPUs"), std::string::npos);
  EXPECT_NE(table.find("geo-mean"), std::string::npos);
  EXPECT_NE(table.find("PGAS over baseline"), std::string::npos);
  EXPECT_FALSE(renderScalingChart(points, true).empty());
  EXPECT_FALSE(renderScalingChart(points, false).empty());
  EXPECT_FALSE(
      renderBreakdownBars(points, "breakdown").empty());
  EXPECT_FALSE(renderCommVolumeChart(points[1].runs, "volume").empty());
}

TEST(ReportTest, SpeedupGuardsAgainstDegenerateInput) {
  // Satellite guard: an empty point reports 0.0 instead of UB/crash.
  ScalingPoint empty;
  EXPECT_EQ(empty.speedup(), 0.0);

  // A treatment with zero batches (avg 0 ms) must not divide by zero.
  ScalingPoint degenerate;
  degenerate.gpus = 2;
  degenerate.runs.push_back({"nccl_collective", {}});
  degenerate.runs.push_back({"pgas_fused", {}});
  EXPECT_EQ(degenerate.speedup(), 0.0);
}

}  // namespace
}  // namespace pgasemb::trace
