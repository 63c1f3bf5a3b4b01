// `train`: closed-loop DLRM training steps at paper weak scale on 4
// GPUs — forward + BCE backprop + EMB backward + MLP all-reduce — for
// full-collective (nccl forward, collective-rounds backward) against
// full-PGAS (pgas forward, remote-atomic backward).
#include "dlrm/trainer.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/system_builder.hpp"
#include "fabric/fabric.hpp"
#include "trace/chrome_trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pgasemb;

namespace {

constexpr int kGpus = 4;
constexpr int kSteps = 20;
constexpr float kLearningRate = 0.01f;

dlrm::BackwardScheme backwardOf(const Scheme& scheme) {
  return std::string(scheme.suffix) == "pgas"
             ? dlrm::BackwardScheme::kPgasAtomics
             : dlrm::BackwardScheme::kCollective;
}

struct SchemeRun {
  std::vector<double> step_ms;
  core::RetrieverStats fwd;
  double bwd_ms = 0.0;
  double mlp_ms = 0.0;
  double wire_bytes = 0.0;
  double wire_msgs = 0.0;
  double events = 0.0;
};

class Train : public Workload {
 public:
  explicit Train(const Options& opt) : seed_(opt.seed) {
    const auto cfg = engine::weakScalingConfig(kGpus);
    Rng rng(opt.seed ^ 0x7a11);
    for (int s = 0; s < kSteps; ++s) {
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
      std::unique_ptr<dlrm::DlrmTrainer> trainer;
      {
        ScopedSpan span("setup.SystemBuilder");
        builder = std::make_unique<engine::SystemBuilder>(cfg);
        retriever = core::RetrieverRegistry::instance().create(
            retrieverName(scheme, traced), builder->context());
        model = std::make_unique<dlrm::DlrmModel>(
            dlrmModel(cfg.layer.dim), builder->layer());
        trainer = std::make_unique<dlrm::DlrmTrainer>(
            *model, *retriever, builder->comm(), builder->runtime(),
            kLearningRate, backwardOf(scheme));
      }
      const bool timeline = traced && !timeline_attached_ &&
                            &scheme == &kSchemes[0];
      if (timeline) {
        timeline_.attach(builder->system(), builder->fabric());
        timeline_attached_ = true;
      }
      clock.setupDone();
      SchemeRun run;
      for (int s = 0; s < kSteps; ++s) {
        if (auto* r = SpanRecorder::active()) r->setBatch(s);
        ScopedSpan span("dlrm.DlrmTrainer.step");
        const auto r =
            trainer->step(dense_, sparse_[static_cast<std::size_t>(s)]);
        run.step_ms.push_back(r.total.toMs());
        run.fwd.add(r.emb_forward);
        run.bwd_ms += r.emb_backward.total.toMs();
        run.mlp_ms += r.mlp_backward_time.toMs();
      }
      const auto events = builder->system().simulator().eventsProcessed();
      clock.add(out, kSteps, events);
      if (timeline) timeline_.detach();
      if (auto* r = SpanRecorder::active()) r->setBatch(-1);

      run.wire_bytes =
          static_cast<double>(builder->fabric().totalPayloadBytes());
      run.wire_msgs = static_cast<double>(builder->fabric().totalMessages());
      run.events = static_cast<double>(events);
      for (double v : run.step_ms) fingerprintAdd(out.fingerprint, v);
      fingerprintAdd(out.fingerprint, run.bwd_ms);
      fingerprintAdd(out.fingerprint, run.wire_bytes);
      if (record) runs_[scheme.suffix] = std::move(run);
    }
    return out;
  }

  void report(Report& rep, bool trace) override {
    const auto cfg = engine::weakScalingConfig(kGpus);
    for (const auto& scheme : kSchemes) {
      const std::string s = scheme.suffix;
      const SchemeRun& run = runs_.at(s);
      closedLoopEndToEnd(
          rep, trace, s, run.step_ms,
          std::vector<double>(run.step_ms.size(),
                              static_cast<double>(cfg.layer.batch_size)),
          "training step");
      if (!trace) continue;
      const double n = static_cast<double>(run.step_ms.size());
      rep.layer("dlrm.emb_fwd_ms." + s, run.fwd.total.toMs() / n, "ms");
      rep.layer("dlrm.emb_bwd_ms." + s, run.bwd_ms / n, "ms");
      rep.layer("dlrm.mlp_bwd_ms." + s, run.mlp_ms / n, "ms",
                "incl. gradient all-reduce");
      rep.layer("core.compute_ms." + s, run.fwd.compute_phase.toMs() / n, "ms");
      rep.layer("core.comm_ms." + s, run.fwd.communication().toMs() / n, "ms");
      rep.layer("core.sync_unpack_ms." + s, run.fwd.syncUnpack().toMs() / n,
                "ms");
      rep.layer("emb.unpack_ms." + s, run.fwd.unpack_phase.toMs() / n, "ms");
      rep.layer("fabric.wire_mb_per_batch." + s, run.wire_bytes / n / 1e6,
                "MB");
      rep.layer("fabric.wire_msgs_per_batch." + s, run.wire_msgs / n, "count");
      rep.layer("sim.events_per_batch." + s, run.events / n, "count");
    }
  }

  void check(Report& rep) override { checkTrain(rep, seed_); }

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

std::unique_ptr<Workload> makeTrain(const Options& opt) {
  return std::make_unique<Train>(opt);
}

}  // namespace perfbench
