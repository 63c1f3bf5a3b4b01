// `serve`: open-loop serving on 4 NVLink GPUs. Poisson arrivals,
// zipf:1.1:1-64 samples per query, Zipf(1.0) single-id lookups with the
// hot-row replica cache armed, 256-sample batches with a 0.2 ms wait, a
// 1 ms p99 limit (simulated). Three phases per retriever:
//   1. a nominal rate both retrievers sustain, for p50 and p99;
//   2. a search for the highest sustainable rate, admission off;
//   3. a fixed overload rate past both knees, admission stack on.
// Arrivals are timestamped on the simulated clock, so latency counts
// from the scheduled arrival and generator lateness is zero by
// construction.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/serving_runner.hpp"
#include "fabric/fabric.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pgasemb;

namespace {

constexpr std::int64_t kMaxBatch = 256;
constexpr double kNominalQps = 32000.0;
constexpr std::int64_t kNominalQueries = 32000;
constexpr std::int64_t kProbeQueries = 32000;
// Knee search: upper end of the bracket and resolution (ratio of the
// final bracket).
constexpr double kKneeHi = 256000.0;
constexpr double kKneeResolution = 1.01;
constexpr double kOverloadQps = 256000.0;
constexpr std::int64_t kOverloadQueries = 64000;

struct SchemeRun {
  engine::ExperimentResult nominal;
  double nominal_events = 0.0;
  double knee_offered = 0.0;
  double knee_achieved = 0.0;
  int knee_probes = 0;
  engine::ExperimentResult overload;
};

bool sustained(const engine::ServingResult& sv, double limit_ms) {
  return sv.achieved_qps >= 0.95 * sv.offered_qps && sv.p99_ms <= limit_ms;
}

class Serve : public Workload {
 public:
  explicit Serve(const Options& opt) : seed_(opt.seed) {}

  PassOutput pass(bool record, bool traced) override {
    PassOutput out;
    for (const auto& scheme : kSchemes) {
      const std::string name = retrieverName(scheme, traced);
      SchemeRun run;
      // Phase 1: nominal rate. It is the only phase later passes repeat
      // (and time); the search and overload phases run once.
      run.nominal = serveOnce(&out, name, kNominalQps, kNominalQueries,
                              false, &run.nominal_events);
      const auto& sv = *run.nominal.serving;
      fingerprintAdd(out.fingerprint, sv.p50_ms);
      fingerprintAdd(out.fingerprint, sv.p99_ms);
      fingerprintAdd(out.fingerprint, run.nominal.stats.total.toMs());
      if (!record) continue;
      // Phase 2: highest sustainable rate. The bracket starts at the
      // nominal rate; false position on log(p99 / limit) over log(rate)
      // (Illinois variant) narrows it to the resolution.
      const auto probe = [&](double qps) {
        const auto r =
            serveOnce(nullptr, name, qps, kProbeQueries, false, nullptr);
        ++run.knee_probes;
        const auto& at = *r.serving;
        if (sustained(at, limit_ms())) {
          run.knee_offered = qps;
          run.knee_achieved = at.achieved_qps;
        }
        // Signed distance from the limit; a growing backlog counts as
        // far past it.
        return at.achieved_qps < 0.95 * at.offered_qps
                   ? 1.0
                   : std::log(at.p99_ms / limit_ms());
      };
      double lo = kNominalQps;
      double hi = kKneeHi;
      double f_lo = probe(lo);
      double f_hi = probe(hi);
      int last = 0;  // end replaced by the previous probe: -1 lo, +1 hi
      while (f_lo <= 0.0 && f_hi > 0.0 && hi / lo > kKneeResolution) {
        double x = std::log(lo) +
                   (std::log(hi) - std::log(lo)) * f_lo / (f_lo - f_hi);
        // Stay strictly inside the bracket by at least a resolution step.
        const double step = std::log(kKneeResolution) / 2.0;
        x = std::clamp(x, std::log(lo) + step, std::log(hi) - step);
        const double mid = std::exp(x);
        const double f = probe(mid);
        // Illinois: when one end moves twice running, halve the other
        // end's value so the bracket closes from both sides.
        if (f <= 0.0) {
          lo = mid;
          f_lo = f;
          if (last == -1) f_hi /= 2.0;
          last = -1;
        } else {
          hi = mid;
          f_hi = f;
          if (last == 1) f_lo /= 2.0;
          last = 1;
        }
      }
      // Phase 3: overload with the admission stack.
      run.overload = serveOnce(nullptr, name, kOverloadQps, kOverloadQueries,
                               true, nullptr);
      runs_[scheme.suffix] = std::move(run);
    }
    return out;
  }

  void report(Report& rep, bool trace) override {
    printf("serve  open loop: latency counts from each query's scheduled "
           "arrival on the simulated clock; generator lateness 0 by "
           "construction\n");
    for (const auto& scheme : kSchemes) {
      const std::string s = scheme.suffix;
      const SchemeRun& run = runs_.at(s);
      const auto& r = run.nominal;
      const auto& sv = *r.serving;
      const auto& ov = *run.overload.serving;
      const double batches = static_cast<double>(r.stats.batches);
      printf("serve  %s: knee %.0f offered / %.1f achieved qps after %d "
             "probes; overload %.0f qps: %lld served, %lld shed\n",
             s.c_str(), run.knee_offered, run.knee_achieved, run.knee_probes,
             kOverloadQps, static_cast<long long>(ov.queries),
             static_cast<long long>(ov.totalShed()));
      if (!trace) {
        rep.endToEnd("sim_batch_ms." + s, r.avgBatchMs(), "ms", r.stats.batches,
                     "mean batch service time at the nominal rate");
        rep.endToEnd("p50_ms." + s, sv.p50_ms, "ms", sv.queries,
                     "per query at " + std::to_string(int(kNominalQps)) +
                         " qps");
        rep.endToEnd("tail_ms." + s, sv.p99_ms, "ms", sv.queries,
                     "p99 per query at " + std::to_string(int(kNominalQps)) +
                         " qps");
        rep.endToEnd("max_qps." + s, run.knee_achieved, "1/s",
                     run.knee_probes,
                     "achieved at the highest offered rate with p99 <= 1 ms");
        rep.endToEnd("goodput_qps." + s, ov.goodput_qps, "1/s", ov.queries,
                     "served within 1 ms at " +
                         std::to_string(int(kOverloadQps)) + " qps offered");
        continue;
      }
      rep.layer("engine.queue_wait_ms." + s, sv.mean_queue_ms, "ms");
      rep.layer("engine.batch_fill." + s, sv.mean_batch_fill, "ratio");
      rep.layer("engine.queue_depth_max." + s,
                static_cast<double>(sv.max_queue_depth), "count");
      rep.layer("engine.shed_queue." + s, static_cast<double>(ov.shed_queue),
                "count", "overload phase");
      rep.layer("engine.shed_overload." + s,
                static_cast<double>(ov.shed_overload), "count",
                "overload phase");
      rep.layer("engine.shed_deadline." + s,
                static_cast<double>(ov.deadline_misses), "count",
                "overload phase");
      rep.layer("core.compute_ms." + s, r.avgComputeMs(), "ms");
      rep.layer("core.comm_ms." + s, r.avgCommunicationMs(), "ms");
      rep.layer("core.sync_unpack_ms." + s, r.avgSyncUnpackMs(), "ms");
      rep.layer("emb.cache_hit_rate." + s, r.cacheHitRate(), "ratio");
      rep.layer("emb.cache_saved_mb_per_batch." + s,
                r.cacheSavedBytes() / batches / 1e6, "MB");
      rep.layer("emb.unpack_ms." + s, r.stats.unpack_phase.toMs() / batches,
                "ms");
      rep.layer("fabric.wire_mb_per_batch." + s,
                static_cast<double>(r.total_wire_bytes) / batches / 1e6, "MB");
      rep.layer("fabric.wire_msgs_per_batch." + s,
                static_cast<double>(r.total_wire_messages) / batches, "count");
      rep.layer("sim.events_per_batch." + s, run.nominal_events / batches,
                "count");
      if (s == "pgas") {
        rep.layer("gpu.lookup_compute_frac", r.lookup_compute_throughput,
                  "ratio");
        rep.layer("gpu.lookup_mem_frac", r.lookup_memory_throughput, "ratio");
      }
    }
  }

  void check(Report& rep) override { checkServe(rep, seed_); }

 private:
  static double limit_ms() { return serveConfig(kMaxBatch).serving.slo_ms; }

  /// One ServingRunner run; its construction is set-up, its run() the
  /// measured loop. Only the nominal phase feeds the host metrics (`out`
  /// non-null): the knee search takes a seed-dependent path and the
  /// overload phase a seed-dependent mix of served and shed queries, so
  /// either would make host cost per batch a function of the seed.
  engine::ExperimentResult serveOnce(PassOutput* out, const std::string& name,
                                     double qps, std::int64_t queries,
                                     bool admission, double* events) {
    engine::ExperimentConfig cfg = serveConfig(kMaxBatch);
    cfg.batch_seed = seed_;
    // One arrival stream per seed, scaled to each rate (common random
    // numbers), so latency is a smooth function of the offered rate and
    // the knee search sees no sampling noise between its probes.
    cfg.serving.seed = splitmix64(seed_);
    cfg.serving.qps = qps;
    cfg.serving.num_queries = queries;
    if (admission) {
      cfg.serving.admit_queue = 64;
      cfg.serving.shed_policy = engine::ShedPolicy::kShedOldest;
      cfg.serving.query_deadline_ms = 0.5;
      cfg.serving.admit_window = 50;
    }
    PassClock clock;
    std::unique_ptr<engine::ServingRunner> runner;
    {
      ScopedSpan span("setup.SystemBuilder");
      runner = std::make_unique<engine::ServingRunner>(cfg);
    }
    clock.setupDone();
    engine::ExperimentResult result;
    {
      ScopedSpan span("engine.ServingRunner.run");
      result = runner->run(name);
    }
    const auto ev = runner->builder().system().simulator().eventsProcessed();
    if (out != nullptr) clock.add(*out, result.stats.batches, ev);
    if (events != nullptr) *events = static_cast<double>(ev);
    return result;
  }

  std::uint64_t seed_;
  std::map<std::string, SchemeRun> runs_;
};

}  // namespace

std::unique_ptr<Workload> makeServe(const Options& opt) {
  return std::make_unique<Serve>(opt);
}

}  // namespace perfbench
