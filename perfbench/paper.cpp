// `paper`: the paper's testbed — closed loop, 4 GPUs on one NVLink
// node, the weak-scaling layer, uniform indices, no cache, no faults —
// running the full DLRM forward through InferencePipeline for both
// retrievers, plus the T1/T2 EMB-layer reproduction points.
#include <cmath>
#include <cstdio>

#include "dlrm/pipeline.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/system_builder.hpp"
#include "fabric/fabric.hpp"
#include "trace/chrome_trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pgasemb;

namespace {

constexpr int kGpus = 4;
// 1000 batches per retriever resolve a p99 with ten batches beyond it.
constexpr int kForwardBatches = 1000;

struct SchemeRun {
  std::vector<double> forward_ms;  ///< per batch
  core::RetrieverStats emb;
  double wire_bytes = 0.0;
  double wire_msgs = 0.0;
  double events = 0.0;
};

class Paper : public Workload {
 public:
  explicit Paper(const Options& opt) : seed_(opt.seed) {
    // Inputs: per-batch realized pooling of the paper's U(1, 128) bags
    // and one dense batch, all from the seed.
    const auto cfg = engine::weakScalingConfig(kGpus);
    Rng rng(opt.seed);
    for (int b = 0; b < kForwardBatches; ++b) {
      sparse_.push_back(realizedPoolingBatch(cfg.layer.batchSpec(), rng));
    }
    dense_ = dlrm::DenseBatch::generateUniform(
        cfg.layer.batch_size, dlrmModel(cfg.layer.dim).dense_dim, rng);
  }

  PassOutput pass(bool record, bool traced) override {
    PassOutput out;
    const auto cfg = engine::weakScalingConfig(kGpus);
    for (const auto& scheme : kSchemes) {
      PassClock clock;
      std::unique_ptr<engine::SystemBuilder> builder;
      std::unique_ptr<core::EmbeddingRetriever> retriever;
      std::unique_ptr<dlrm::DlrmModel> model;
      {
        ScopedSpan span("setup.SystemBuilder");
        builder = std::make_unique<engine::SystemBuilder>(cfg);
        retriever = core::RetrieverRegistry::instance().create(
            retrieverName(scheme, traced), builder->context());
        model = std::make_unique<dlrm::DlrmModel>(dlrmModel(cfg.layer.dim),
                                                  builder->layer());
      }
      dlrm::InferencePipeline pipeline(*model, *retriever);
      const bool timeline = traced && !timeline_attached_ &&
                            &scheme == &kSchemes[0];
      if (timeline) {
        timeline_.attach(builder->system(), builder->fabric());
        timeline_attached_ = true;
      }
      clock.setupDone();
      SchemeRun run;
      for (int b = 0; b < kForwardBatches; ++b) {
        if (auto* r = SpanRecorder::active()) r->setBatch(b);
        ScopedSpan span("dlrm.InferencePipeline.runBatch");
        const auto r =
            pipeline.runBatch(dense_, sparse_[static_cast<std::size_t>(b)]);
        run.emb.add(r.emb);
        run.forward_ms.push_back(r.batch_total.toMs());
      }
      run.emb.total += retriever->finish();
      const auto events = builder->system().simulator().eventsProcessed();
      clock.add(out, kForwardBatches, events);
      if (timeline) timeline_.detach();
      if (auto* r = SpanRecorder::active()) r->setBatch(-1);

      run.wire_bytes =
          static_cast<double>(builder->fabric().totalPayloadBytes());
      run.wire_msgs = static_cast<double>(builder->fabric().totalMessages());
      run.events = static_cast<double>(events);
      for (double v : run.forward_ms) fingerprintAdd(out.fingerprint, v);
      fingerprintAdd(out.fingerprint, run.emb.total.toMs());
      fingerprintAdd(out.fingerprint, run.wire_bytes);
      if (record) runs_[scheme.suffix] = std::move(run);
    }
    return out;
  }

  void report(Report& rep, bool trace) override {
    paperSpeedupError(true);
    for (const auto& scheme : kSchemes) {
      printf("paper  forward at the expected (statistical) inputs, %s: "
             "%.4f ms/batch\n",
             scheme.suffix, expectedForwardMs(scheme));
    }
    if (trace) {
      // ncu-style fractions of the lookup kernel on the paper config.
      auto cfg = engine::weakScalingConfig(kGpus);
      cfg.num_batches = 1;
      const auto r = engine::ScenarioRunner(cfg).run("pgas_fused");
      rep.layer("gpu.lookup_compute_frac", r.lookup_compute_throughput,
                "ratio");
      rep.layer("gpu.lookup_mem_frac", r.lookup_memory_throughput, "ratio");
    }
    const auto cfg = engine::weakScalingConfig(kGpus);
    for (const auto& scheme : kSchemes) {
      const std::string s = scheme.suffix;
      const SchemeRun& run = runs_.at(s);
      closedLoopEndToEnd(
          rep, trace, s, run.forward_ms,
          std::vector<double>(run.forward_ms.size(),
                              static_cast<double>(cfg.layer.batch_size)),
          "full DLRM forward batch");
      if (!trace) continue;
      const double n = static_cast<double>(run.forward_ms.size());
      double mean_ms = 0.0;
      for (double v : run.forward_ms) mean_ms += v / n;
      const double emb_ms = run.emb.total.toMs() / n;
      rep.layer("dlrm.emb_ms." + s, emb_ms, "ms");
      rep.layer("dlrm.dense_exposed_ms." + s, mean_ms - emb_ms, "ms",
                "forward minus EMB layer");
      rep.layer("core.compute_ms." + s, run.emb.compute_phase.toMs() / n, "ms");
      rep.layer("core.comm_ms." + s, run.emb.communication().toMs() / n, "ms");
      rep.layer("core.sync_unpack_ms." + s, run.emb.syncUnpack().toMs() / n,
                "ms");
      rep.layer("emb.unpack_ms." + s, run.emb.unpack_phase.toMs() / n, "ms");
      rep.layer("fabric.wire_mb_per_batch." + s, run.wire_bytes / n / 1e6,
                "MB");
      rep.layer("fabric.wire_msgs_per_batch." + s, run.wire_msgs / n, "count");
      rep.layer("sim.events_per_batch." + s, run.events / n, "count");
    }
  }

  void check(Report& rep) override { checkPaper(rep, seed_); }

  /// One forward batch on the paper's expected inputs — the number
  /// earlier EMB-only reports would extend to the full forward.
  static double expectedForwardMs(const Scheme& scheme) {
    const auto cfg = engine::weakScalingConfig(kGpus);
    engine::SystemBuilder builder(cfg);
    auto retriever = core::RetrieverRegistry::instance().create(
        scheme.registry_name, builder.context());
    dlrm::DlrmModel model(dlrmModel(cfg.layer.dim), builder.layer());
    dlrm::InferencePipeline pipeline(model, *retriever);
    Rng rng(1);
    const auto dense = dlrm::DenseBatch::generateUniform(
        cfg.layer.batch_size, model.config().dense_dim, rng);
    return pipeline
        .runBatch(dense, emb::SparseBatch::statistical(cfg.layer.batchSpec()))
        .batch_total.toMs();
  }

  void writeTimeline(const std::string& path) override {
    if (timeline_attached_) timeline_.writeFile(path);
  }

 private:
  std::uint64_t seed_;
  std::vector<emb::SparseBatch> sparse_;
  dlrm::DenseBatch dense_;
  std::map<std::string, SchemeRun> runs_;
  trace::ChromeTraceRecorder timeline_;
  bool timeline_attached_ = false;
};

}  // namespace

std::unique_ptr<Workload> makePaper(const Options& opt) {
  return std::make_unique<Paper>(opt);
}

// --- T1/T2 ----------------------------------------------------------------

double paperSpeedupError(bool print) {
  struct Point {
    const char* table;
    int gpus;
    double paper;
  };
  // Paper Tables 1 (weak) and 2 (strong): PGAS speedup over the NCCL
  // baseline on the EMB layer.
  static const Point kPoints[] = {{"T1", 2, 2.10}, {"T1", 3, 1.95},
                                  {"T1", 4, 1.87}, {"T2", 2, 2.95},
                                  {"T2", 3, 2.55}, {"T2", 4, 2.44}};
  static double cached = -1.0;
  static std::vector<double> measured;
  if (cached < 0.0) {
    double sum = 0.0;
    for (const auto& p : kPoints) {
      const auto cfg = std::string(p.table) == "T1"
                           ? engine::weakScalingConfig(p.gpus)
                           : engine::strongScalingConfig(p.gpus);
      engine::ScenarioRunner runner(cfg);
      const double nccl = runner.run("nccl_collective").avgBatchMs();
      const double pgas = runner.run("pgas_fused").avgBatchMs();
      measured.push_back(nccl / pgas);
      sum += std::fabs(std::log(measured.back() / p.paper));
    }
    cached = 100.0 * sum / static_cast<double>(std::size(kPoints));
  }
  if (print) {
    for (std::size_t i = 0; i < std::size(kPoints); ++i) {
      const auto& p = kPoints[i];
      printf("paper  %s %d GPUs: measured %.4fx  paper %.2fx  error %+.2f%%\n",
             p.table, p.gpus, measured[i], p.paper,
             100.0 * std::log(measured[i] / p.paper));
    }
  }
  return cached;
}


}  // namespace perfbench
