// `multinode`: closed loop on 4 nodes x 4 GPUs with the hierarchical
// all-to-all and the multinode serving layer. Each batch carries the
// next 140 queries of a seeded zipf:1.1:1-64 size stream, and a
// node-scoped fault plan (nic-flap, leader-fail, nic-degrade) has its
// windows pinned inside every retriever's run, at fixed fractions of the
// fault-free PGAS run over the same batches.
#include <algorithm>
#include <cstdio>

#include "engine/batch_executor.hpp"
#include "engine/system_builder.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "trace/chrome_trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pgasemb;

namespace {

constexpr int kNodes = 4;
constexpr int kGpusPerNode = 4;
constexpr int kBatches = 200;  // a p95 with ten batches beyond it

struct SchemeRun {
  std::vector<double> batch_ms;
  engine::ExperimentResult result;
  double events = 0.0;
};

class Multinode : public Workload {
 public:
  explicit Multinode(const Options& opt) : seed_(opt.seed) {
    cfg_ = multinodeConfig(kNodes, kGpusPerNode);
    // 140 queries average ~1650 of the 2048 samples, so batch fills
    // (and times) spread continuously instead of piling up at the cap.
    QueryPacker packer(cfg_.layer.batch_size, 140, seed_ ^ 0x4d55);
    for (int b = 0; b < kBatches; ++b) {
      fills_.push_back(static_cast<double>(packer.next()));
    }
    // The shorter (PGAS) run's fault-free length over these batches.
    const double span_ms = [&] {
      double ms = 0.0;
      for (double v : runScheme("pgas_fused", nullptr).batch_ms) ms += v;
      return ms;
    }();
    // Fixed targets (three different nodes) at fixed fractions of the
    // run: every seed meets the same fault schedule, so the spread
    // between seeds is the workload's, not the schedule's.
    char plan[256];
    snprintf(plan, sizeof(plan),
             "nic-flap:1:%.6f-%.6f,leader-fail:2:%.6f-%.6f,"
             "nic-degrade:3:0.5:%.6f-%.6f",
             0.30 * span_ms, 0.30 * span_ms + std::min(4.0, 0.03 * span_ms),
             0.40 * span_ms, 0.60 * span_ms, 0.50 * span_ms, 0.80 * span_ms);
    cfg_.faults = fault::FaultPlan::parse(plan, seed_);
    printf("multinode fault plan: %s (fault-free PGAS run %.3f ms)\n", plan,
           span_ms);
  }

  PassOutput pass(bool record, bool traced) override {
    PassOutput out;
    for (const auto& scheme : kSchemes) {
      const bool timeline = traced && !timeline_attached_;
      SchemeRun run = runScheme(retrieverName(scheme, traced), &out,
                                timeline ? &timeline_ : nullptr);
      timeline_attached_ = timeline_attached_ || timeline;
      for (double v : run.batch_ms) fingerprintAdd(out.fingerprint, v);
      if (const auto& rs = run.result.resilience) {
        fingerprintAdd(out.fingerprint, static_cast<double>(rs->retransmits));
        fingerprintAdd(out.fingerprint, rs->recovery_latency.toMs());
      }
      if (record) runs_[scheme.suffix] = std::move(run);
    }
    return out;
  }

  void report(Report& rep, bool trace) override {
    for (const auto& scheme : kSchemes) {
      const std::string s = scheme.suffix;
      const SchemeRun& run = runs_.at(s);
      const auto& r = run.result;
      closedLoopEndToEnd(rep, trace, s, run.batch_ms, fills_,
                         "EMB batch under the fault plan");
      const fault::ResilienceStats rs = r.resilience.value_or(
          fault::ResilienceStats{});
      printf("multinode %s: %lld faults, %lld dropped flows, %lld retransmits, "
             "%lld reissues, %lld per-pair fallbacks, %lld failovers\n",
             s.c_str(), static_cast<long long>(rs.faults_injected),
             static_cast<long long>(rs.dropped_flows),
             static_cast<long long>(rs.retransmits),
             static_cast<long long>(rs.collective_reissues),
             static_cast<long long>(rs.hier_fallbacks),
             static_cast<long long>(rs.leader_failovers));
      if (!trace) continue;
      const double n = static_cast<double>(r.stats.batches);
      const auto& in = r.inter_node.value_or(engine::InterNodeTraffic{});
      rep.layer("core.compute_ms." + s, r.avgComputeMs(), "ms");
      rep.layer("core.comm_ms." + s, r.avgCommunicationMs(), "ms");
      rep.layer("core.sync_unpack_ms." + s, r.avgSyncUnpackMs(), "ms");
      rep.layer("emb.unpack_ms." + s, r.stats.unpack_phase.toMs() / n, "ms");
      rep.layer("fabric.wire_mb_per_batch." + s,
                static_cast<double>(r.total_wire_bytes) / n / 1e6, "MB");
      rep.layer("fabric.wire_msgs_per_batch." + s,
                static_cast<double>(r.total_wire_messages) / n, "count");
      rep.layer("fabric.inter_wire_mb_per_batch." + s,
                in.inter_wire_equivalent_bytes / n / 1e6, "MB");
      rep.layer("fabric.intra_wire_mb_per_batch." + s,
                in.intra_wire_equivalent_bytes / n / 1e6, "MB");
      rep.layer("sim.events_per_batch." + s, run.events / n, "count");
      rep.layer("fault.injected." + s, static_cast<double>(rs.faults_injected),
                "count");
      rep.layer("fault.dropped_flows." + s,
                static_cast<double>(rs.dropped_flows), "count");
      rep.layer("fault.hier_fallbacks." + s,
                static_cast<double>(rs.hier_fallbacks), "count");
      rep.layer("fault.leader_failovers." + s,
                static_cast<double>(rs.leader_failovers), "count");
      rep.layer("fault.recovery_ms." + s, rs.recovery_latency.toMs(), "ms");
      rep.layer("fault.degraded_ms." + s, rs.degraded_time.toMs(), "ms");
      if (s == "pgas") {
        rep.layer("pgas.retransmits", static_cast<double>(rs.retransmits),
                  "count");
        rep.layer("gpu.lookup_compute_frac", r.lookup_compute_throughput,
                  "ratio");
        rep.layer("gpu.lookup_mem_frac", r.lookup_memory_throughput, "ratio");
      } else {
        rep.layer("collective.reissues",
                  static_cast<double>(rs.collective_reissues), "count");
      }
    }
  }

  void check(Report& rep) override { checkMultinode(rep, seed_); }

  void writeTimeline(const std::string& path) override {
    if (timeline_attached_) timeline_.writeFile(path);
  }

 private:
  /// One retriever over the batch schedule: builder construction and
  /// executor creation are set-up; the batches, the end-of-run drain and
  /// finalizeResult are the measured loop.
  SchemeRun runScheme(const std::string& name, PassOutput* out,
                      trace::ChromeTraceRecorder* timeline = nullptr) {
    PassClock clock;
    std::unique_ptr<engine::SystemBuilder> builder;
    std::unique_ptr<engine::BatchExecutor> exec;
    {
      ScopedSpan span("setup.SystemBuilder");
      builder = std::make_unique<engine::SystemBuilder>(cfg_);
      exec = std::make_unique<engine::BatchExecutor>(*builder, name);
    }
    if (timeline != nullptr) {
      timeline->attach(builder->system(), builder->fabric());
      if (auto* injector = builder->faultInjector()) {
        timeline->markFaultWindows(injector->materialized());
      }
    }
    clock.setupDone();
    SchemeRun run;
    for (int b = 0; b < kBatches; ++b) {
      if (auto* r = SpanRecorder::active()) r->setBatch(b);
      emb::SparseBatchSpec spec = cfg_.layer.batchSpec();
      spec.active_samples =
          static_cast<std::int64_t>(fills_[static_cast<std::size_t>(b)]);
      ScopedSpan span("engine.BatchExecutor.runOne");
      run.batch_ms.push_back(
          exec->runOne(emb::SparseBatch::statistical(spec), run.result)
              .total.toMs());
    }
    if (auto* r = SpanRecorder::active()) r->setBatch(-1);
    exec->finishRun(run.result);
    {
      ScopedSpan span("engine.finalizeResult");
      finalizeResult(*builder, *exec,
                     emb::SparseBatch::statistical(cfg_.layer.batchSpec()),
                     run.result);
    }
    const auto events = builder->system().simulator().eventsProcessed();
    if (out != nullptr) clock.add(*out, kBatches, events);
    if (timeline != nullptr) timeline->detach();
    run.events = static_cast<double>(events);
    return run;
  }

  std::uint64_t seed_;
  engine::ExperimentConfig cfg_;
  std::vector<double> fills_;
  std::map<std::string, SchemeRun> runs_;
  trace::ChromeTraceRecorder timeline_;
  bool timeline_attached_ = false;
};

}  // namespace

std::unique_ptr<Workload> makeMultinode(const Options& opt) {
  return std::make_unique<Multinode>(opt);
}

}  // namespace perfbench
