// The paper's own experiments (§IV):
//   weak_scaling      Table 1 + Figure 5: speedups "2.10x / 1.95x /
//                     1.87x, geo-mean 1.97x" and the weak-scaling factor
//   strong_scaling    Table 2 + Figure 8: "2.95x / 2.55x / 2.44x,
//                     geo-mean 2.63x", plus the ncu observation that the
//                     2-GPU lookup kernel sustains ~38% compute / ~57%
//                     memory throughput
//   weak_breakdown    Figure 6: computation flat, communication
//                     decreasing, sync+unpack increasing; PGAS total ~=
//                     baseline computation
//   strong_breakdown  Figure 9: the baseline's 2-GPU total exceeds its
//                     1-GPU total (~1.8x) while PGAS gains ~1.6x
//   comm_volume       Figures 7 + 10: wire traffic over time
//
// Weak workload: per GPU, 64 tables x 1M rows, dim 64, batch 16384,
// pooling U(1, 128). Strong workload: 96 tables x 1M rows total (sized
// by one 32 GB V100), pooling U(1, 32). 100 inference batches on a
// simulated 4x V100 NVLink-connected DGX.
#include <algorithm>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace pgasemb::bench {
namespace {

/// Runs every named retriever at 1..max_gpus GPUs; configAt(gpus) is
/// each point's config.
template <typename ConfigAt>
std::vector<trace::ScalingPoint> sweepScaling(
    ConfigAt configAt, int max_gpus,
    const std::vector<std::string>& retrievers) {
  PGASEMB_CHECK(max_gpus >= 1, "--max-gpus must be >= 1");
  std::vector<trace::ScalingPoint> points;
  for (int gpus = 1; gpus <= max_gpus; ++gpus) {
    engine::ScenarioRunner runner(configAt(gpus));
    trace::ScalingPoint point;
    point.gpus = gpus;
    point.runs = runner.runAll(retrievers);
    points.push_back(std::move(point));
  }
  return points;
}

void printPerGpuRuntimes(const std::vector<trace::ScalingPoint>& pts) {
  printf("\nPer-batch EMB-layer time (ms), accumulated over %d batches:\n",
         pts[0].reference().result.stats.batches);
  for (const auto& p : pts) {
    printf("  %d GPU(s):", p.gpus);
    for (const auto& run : p.runs) {
      printf(" %s %8.3f ms  ", trace::runKey(run.retriever).c_str(),
             run.result.avgBatchMs());
    }
    printf(" speedup %.2fx\n", p.speedup());
  }
}

void printScaling(const std::vector<trace::ScalingPoint>& points, bool weak) {
  printf("\n%s\n", trace::renderSpeedupTable(points).c_str());
  printf(weak ? "(paper: 2.10x / 1.95x / 1.87x, geo-mean 1.97x)\n"
              : "(paper: 2.95x / 2.55x / 2.44x, geo-mean 2.63x)\n");
  printPerGpuRuntimes(points);
  printf("\n%s\n", trace::renderScalingChart(points, weak).c_str());
  printf(weak ? "(paper Fig 5: baseline drops to ~0.46 at 2 GPUs then stays "
                "flat; PGAS stays near 1.0)\n"
              : "(paper Fig 8: baseline < 1.0 for 2-4 GPUs; PGAS ~1.6 at 2 "
                "GPUs, declining beyond)\n");
  const std::string cache_table = trace::renderCacheTable(points);
  if (!cache_table.empty()) printf("\n%s\n", cache_table.c_str());
  const std::string resilience = trace::renderResilienceTable(points);
  if (!resilience.empty()) printf("\n%s\n", resilience.c_str());
  printSimsanReports(points);
  if (!weak && points.size() >= 2) {
    const auto& two = points[1].treatment().result;
    printf("\nncu-style lookup-kernel throughput at 2 GPUs: compute "
           "%.0f%%, memory %.0f%% (paper §IV-B2a: 38%% / 57%%)\n",
           two.lookup_compute_throughput * 100.0,
           two.lookup_memory_throughput * 100.0);
  }
}

void printBreakdown(const std::vector<trace::ScalingPoint>& points,
                    bool weak) {
  printf("\n%s\n",
         trace::renderBreakdownBars(
             points, weak ? "Per-batch breakdown, weak scaling (ms)"
                          : "Per-batch breakdown, strong scaling (ms)")
             .c_str());
  if (weak) {
    printf("Expected paper shapes: computation flat; communication "
           "decreases\nwith more GPUs; sync+unpack increases; PGAS total "
           "~= baseline computation.\n\n");
  }
  const std::string total_col =
      trace::runKey(points[0].treatment().retriever) + " total";
  printf("%-6s %-12s %-14s %-14s %-12s\n", "GPUs", "compute", "comm",
         "sync+unpack", total_col.c_str());
  for (const auto& p : points) {
    const auto& ref = p.reference().result;
    printf("%-6d %-12.3f %-14.3f %-14.3f %-12.3f\n", p.gpus,
           ref.avgComputeMs(), ref.avgCommunicationMs(),
           ref.avgSyncUnpackMs(), p.treatment().result.avgBatchMs());
  }

  if (weak) {
    // The paper's measurement method (§IV-A2a): the communication time
    // is estimated by re-running the communication phase with a single
    // float and subtracting. In the simulator we have the ground truth
    // (wire time); report both so the method itself is validated.
    printf("\nPaper estimation method check (2 GPUs): direct wire time vs "
           "comm-phase-minus-sync:\n");
    if (points.size() < 2) return;
    const auto& ref = points[1].reference().result;
    const double direct = ref.avgCommunicationMs();
    const double phase = ref.stats.comm_phase.toMs() / ref.stats.batches;
    printf("  comm phase %.3f ms, wire (direct) %.3f ms, control-path "
           "overhead %.3f ms/batch\n",
           phase, direct, phase - direct);
  } else if (points.size() >= 2) {
    printf("\nbaseline 2-GPU total / 1-GPU total: %.2fx (paper: ~1.8x)\n",
           points[1].reference().result.avgBatchMs() /
               points[0].reference().result.avgBatchMs());
    printf("PGAS 2-GPU speedup over 1 GPU: %.2fx (paper: ~1.6x)\n",
           points[0].treatment().result.avgBatchMs() /
               points[1].treatment().result.avgBatchMs());
  }
}

/// Simulator-throughput record: one extra timed run per retriever at the
/// largest GPU count. The simulated results of these runs are
/// bit-identical to the sweep's — only the wall clock around them is new.
void writeThroughputJson(const std::string& path,
                         const engine::ExperimentConfig& cfg,
                         const std::vector<std::string>& retrievers) {
  engine::ScenarioRunner runner(cfg);
  std::vector<double> wall_ms, rate, events;
  for (const auto& name : retrievers) {
    const TimedRun run = timeRuns(runner, name);
    wall_ms.push_back(run.wall_ms_per_batch);
    rate.push_back(run.events_per_sec);
    events.push_back(static_cast<double>(run.events_processed));
  }
  JsonRecord rec(path, "--bench-json", "weak_scaling");
  fprintf(rec.out(), "  \"gpus\": %d,\n  \"batches\": %d,\n", cfg.num_gpus,
          cfg.num_batches);
  fprintf(rec.out(), "  \"coalesce\": %s,\n",
          cfg.coalesce_flows ? "true" : "false");
  rec.field("sim_wall_ms_per_batch", retrievers, "%.4f", wall_ms);
  rec.field("events_per_sec", retrievers, "%.1f", rate);
  rec.field("events_processed", retrievers, "%.0f", events);
  rec.close();
}

}  // namespace

template <bool weak, bool breakdown>
int scalingSweep(CliParser& cli, int argc, char** argv) {
  const std::string name = std::string(weak ? "weak" : "strong") +
                           (breakdown ? "_breakdown" : "_scaling");
  const bool throughput_json = weak && !breakdown;
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 100, "inference batches per configuration");
  cli.addString("csv", name + ".csv", "output CSV path (empty = none)");
  if (throughput_json) {
    cli.addString("bench-json", "",
                  "write a simulator-throughput JSON record (wall "
                  "ms/batch, events/sec, events processed) for the "
                  "largest GPU count to this path; empty = off");
  }
  addRetrieversFlag(cli);
  addCacheFlags(cli);
  if (!breakdown) {
    addSimsanFlag(cli);
    addFaultFlags(cli);
    addCoalesceFlag(cli);
  }
  if (!cli.parse(argc, argv)) return 0;

  if (breakdown) {
    printHeader(weak ? "Weak-scaling runtime breakdown (Figure 6)"
                     : "Strong-scaling runtime breakdown (Figure 9)");
  } else {
    printHeader(weak ? "Weak scaling: 64 tables/GPU x 1M rows, dim 64, "
                       "batch 16384, pooling U(1,128)"
                     : "Strong scaling: 96 tables x 1M rows total, dim 64, "
                       "batch 16384, pooling U(1,32)");
  }
  // The scaling rule (weak: tables grow with the GPU count) is the
  // config factories'; the flags apply on top at every point.
  const auto configAt = [&](int gpus) {
    engine::ExperimentConfig cfg = weak ? engine::weakScalingConfig(gpus)
                                        : engine::strongScalingConfig(gpus);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    applyCacheFlags(cli, cfg);
    if (!breakdown) {
      applySimsanFlags(cli, cfg);
      applyFaultFlags(cli, cfg);
      applyCoalesceFlag(cli, cfg);
    }
    return cfg;
  };
  const int max_gpus = static_cast<int>(cli.getInt("max-gpus"));
  const auto retrievers = retrieverList(cli);
  const auto points = sweepScaling(configAt, max_gpus, retrievers);
  if (breakdown) {
    printBreakdown(points, weak);
  } else {
    printScaling(points, weak);
  }

  const std::string csv = cli.getString("csv");
  if (!csv.empty()) {
    trace::writeScalingCsv(csv, points);
    printf("\nwrote %s\n", csv.c_str());
  }
  if (throughput_json && !cli.getString("bench-json").empty()) {
    writeThroughputJson(cli.getString("bench-json"), configAt(max_gpus),
                        retrievers);
  }
  return 0;
}

template int scalingSweep<true, false>(CliParser&, int, char**);
template int scalingSweep<false, false>(CliParser&, int, char**);
template int scalingSweep<true, true>(CliParser&, int, char**);
template int scalingSweep<false, true>(CliParser&, int, char**);

namespace {

void runFigure(const char* title, engine::ExperimentConfig cfg,
               const std::vector<std::string>& retrievers,
               const std::string& csv_path) {
  cfg.num_batches = 1;  // one batch shows the within-batch shape
  // ~150 buckets across the treatment's batch for a smooth trace.
  const auto probe = engine::ScenarioRunner(cfg).run(retrievers.back());
  cfg.counter_bucket =
      SimTime(std::max<std::int64_t>(probe.stats.total.count() / 150, 1000));

  engine::ScenarioRunner runner(cfg);
  const auto runs = runner.runAll(retrievers);
  // The text and CSV list the treatment first, the reference last
  // (historical ordering).
  const std::vector<engine::NamedResult> rev(runs.rbegin(), runs.rend());
  const auto sep = [&](std::size_t i) {
    return i + 1 == rev.size() ? "\n" : ",";
  };

  printHeader(title);
  printf("\n%s\n", trace::renderCommVolumeChart(runs, title).c_str());
  printf("total volume:");
  for (std::size_t i = 0; i < rev.size(); ++i) {
    printf(" %s %lld B in %lld messages%s",
           trace::runKey(rev[i].retriever).c_str(),
           static_cast<long long>(rev[i].result.total_wire_bytes),
           static_cast<long long>(rev[i].result.total_wire_messages), sep(i));
  }
  printf("batch time:");
  for (std::size_t i = 0; i < rev.size(); ++i) {
    printf(" %s %.3f ms%s", trace::runKey(rev[i].retriever).c_str(),
           rev[i].result.avgBatchMs(), sep(i));
  }

  // Replica-cache accounting: printed (and appended to the CSV header
  // set) only when a cache was attached, so cache-less output keeps the
  // historical bytes exactly.
  bool any_cache = false;
  for (const auto& run : runs) {
    any_cache = any_cache || run.result.stats.cache_lookups > 0.0;
  }
  if (any_cache) {
    printf("cache:");
    for (std::size_t i = 0; i < rev.size(); ++i) {
      printf(" %s hit %.1f%% saved %.0f B%s",
             trace::runKey(rev[i].retriever).c_str(),
             rev[i].result.cacheHitRate() * 100.0,
             rev[i].result.cacheSavedBytes(), sep(i));
    }
  }

  if (!csv_path.empty()) {
    std::vector<std::string> headers{"time_us"};
    std::size_t n = 0;
    for (const auto& run : rev) {
      headers.push_back(trace::runKey(run.retriever) + "_units");
      n = std::max(n, run.result.wire_bytes_over_time.size());
    }
    if (any_cache) {
      for (const auto& run : rev) {
        headers.push_back(trace::runKey(run.retriever) + "_cache_hit_rate");
        headers.push_back(trace::runKey(run.retriever) + "_cache_saved_bytes");
      }
    }
    CsvWriter csv(csv_path, headers);
    const auto& clock = runs.back().result;
    for (std::size_t i = 0; i < n; ++i) {
      const double t =
          clock.bucket_width.toUs() * (static_cast<double>(i) + 0.5);
      std::vector<std::string> row{ConsoleTable::num(t, 2)};
      for (const auto& run : rev) {
        const auto& series = run.result.wire_bytes_over_time;
        row.push_back(ConsoleTable::num(
            i < series.size() ? series[i] / 256.0 : 0.0, 1));
      }
      if (any_cache) {
        for (const auto& run : rev) {
          row.push_back(ConsoleTable::num(run.result.cacheHitRate(), 4));
          row.push_back(ConsoleTable::num(run.result.cacheSavedBytes(), 0));
        }
      }
      csv.addRow(row);
    }
    printf("wrote %s\n", csv_path.c_str());
  }
  printf("\n");
}

}  // namespace

// Figures 7 and 10: communication volume over time (units of 256 bytes)
// — Fig 7 on the weak configuration at 2 GPUs, Fig 10 on the strong one
// at 4 GPUs. PGAS traffic is spread across the whole compute window
// (fine-grained overlap, smooth network usage); the baseline's is zero
// during compute, then a concentrated burst in its communication phase.
int commVolume(CliParser& cli, int argc, char** argv) {
  cli.addString("csv-fig7", "comm_volume_fig7.csv", "Fig 7 CSV path");
  cli.addString("csv-fig10", "comm_volume_fig10.csv", "Fig 10 CSV path");
  addRetrieversFlag(cli);
  addCacheFlags(cli);
  addCoalesceFlag(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto retrievers = retrieverList(cli);
  auto fig7 = engine::weakScalingConfig(2);
  auto fig10 = engine::strongScalingConfig(4);
  for (auto* cfg : {&fig7, &fig10}) {
    applyCacheFlags(cli, *cfg);
    applyCoalesceFlag(cli, *cfg);
  }
  runFigure("Figure 7: comm volume over time — weak scaling, 2 GPUs", fig7,
            retrievers, cli.getString("csv-fig7"));
  runFigure("Figure 10: comm volume over time — strong scaling, 4 GPUs",
            fig10, retrievers, cli.getString("csv-fig10"));
  return 0;
}

}  // namespace pgasemb::bench
