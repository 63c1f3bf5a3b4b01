// perfbench: one command per workload prints every metric by
// name with its unit and sample count, the operations attempted and
// failed, and checks the program's outputs; the last stdout line is the
// JSON result.
//
//   perfbench --workload paper|serve|train|multinode --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer counters, host self time per layer
// and the tracing overhead, and writes spans and the simulated timeline
// under .bench_build/traces/.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workload.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "paper|serve|train|multinode --seed N --seconds S --trace 0|1\n",
          why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        usage("--seconds wants a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      opt.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

std::unique_ptr<Workload> makeWorkload(const Options& opt) {
  if (opt.workload == "paper") return makePaper(opt);
  if (opt.workload == "serve") return makeServe(opt);
  if (opt.workload == "train") return makeTrain(opt);
  if (opt.workload == "multinode") return makeMultinode(opt);
  usage(("unknown workload " + opt.workload).c_str());
}

/// Every metric BENCHMARK.json names, in its two groups; each workload
/// reports all of them (per-layer counters of a layer the workload
/// bypasses read 0).
std::vector<MetricDef> endToEndMetrics() {
  std::vector<MetricDef> defs = {{"setup_s", "s"},
                                 {"peak_rss_mb", "MB"},
                                 {"paper_speedup_err", "%"}};
  for (const auto& scheme : kSchemes) {
    const std::string s = std::string(".") + scheme.suffix;
    for (const auto& [name, unit] :
         {std::pair{"sim_batch_ms", "ms"}, {"p50_ms", "ms"}, {"tail_ms", "ms"},
          {"max_qps", "1/s"}, {"goodput_qps", "1/s"}}) {
      defs.push_back({name + s, unit});
    }
  }
  return defs;
}

std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> defs = {
      {"engine.host_ms_per_batch", "ms"}, {"core.host_ms_per_batch", "ms"},
      {"dlrm.host_ms_per_step", "ms"},    {"host.ms_per_batch", "ms"},
      {"host.minflt_per_batch", "count"},
      {"sim.host_ns_per_event", "ns"},    {"trace.overhead_ms_per_batch", "ms"},
      {"gpu.lookup_compute_frac", "ratio"}, {"gpu.lookup_mem_frac", "ratio"},
      {"pgas.retransmits", "count"},      {"collective.reissues", "count"}};
  const std::pair<const char*, const char*> per_scheme[] = {
      {"engine.queue_wait_ms", "ms"},
      {"engine.batch_fill", "ratio"},
      {"engine.queue_depth_max", "count"},
      {"engine.shed_queue", "count"},
      {"engine.shed_overload", "count"},
      {"engine.shed_deadline", "count"},
      {"core.compute_ms", "ms"},
      {"core.comm_ms", "ms"},
      {"core.sync_unpack_ms", "ms"},
      {"sim.events_per_batch", "count"},
      {"fabric.wire_mb_per_batch", "MB"},
      {"fabric.wire_msgs_per_batch", "count"},
      {"fabric.inter_wire_mb_per_batch", "MB"},
      {"fabric.intra_wire_mb_per_batch", "MB"},
      {"emb.cache_hit_rate", "ratio"},
      {"emb.cache_saved_mb_per_batch", "MB"},
      {"emb.unpack_ms", "ms"},
      {"dlrm.emb_ms", "ms"},
      {"dlrm.dense_exposed_ms", "ms"},
      {"dlrm.emb_fwd_ms", "ms"},
      {"dlrm.emb_bwd_ms", "ms"},
      {"dlrm.mlp_bwd_ms", "ms"},
      {"fault.injected", "count"},
      {"fault.dropped_flows", "count"},
      {"fault.hier_fallbacks", "count"},
      {"fault.leader_failovers", "count"},
      {"fault.recovery_ms", "ms"},
      {"fault.degraded_ms", "ms"}};
  for (const auto& scheme : kSchemes) {
    for (const auto& [name, unit] : per_scheme) {
      defs.push_back({std::string(name) + "." + scheme.suffix, unit});
    }
  }
  return defs;
}

/// Host-side metrics of the passes a run made.
struct HostSamples {
  std::vector<double> setup_s;
  std::vector<double> ms_per_batch;
  std::vector<double> minflt_per_batch;
  std::vector<double> ns_per_event;
  std::int64_t batches = 0;
};

void addPass(HostSamples& h, const PassOutput& p) {
  const double n = static_cast<double>(p.batches);
  h.setup_s.push_back(p.setup_s);
  h.ms_per_batch.push_back(1000.0 * p.loop_s / n);
  h.minflt_per_batch.push_back(static_cast<double>(p.minor_faults) / n);
  if (p.events > 0) {
    h.ns_per_event.push_back(1e9 * p.loop_s / static_cast<double>(p.events));
  }
  h.batches += p.batches;
}

int run(const Options& opt) {
  printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
         opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
         opt.seconds, opt.trace ? 1 : 0);
  Report report;
  auto workload = makeWorkload(opt);

  // Passes: the first records the simulated results and warms the
  // host (allocator, page cache); the rest repeat the identical work to
  // time the host and must reproduce every simulated number. The traced
  // run alternates traced and untraced passes so the tracing overhead is
  // measured inside one process.
  SpanRecorder spans;
  HostSamples plain;
  HostSamples traced;
  std::string fingerprint;
  std::int64_t batches_per_pass = 0;
  const double start = nowSec();
  int passes = 0;
  constexpr int kMinPasses = 4;
  while (passes < kMinPasses || nowSec() - start < opt.seconds) {
    const bool trace_this = opt.trace && passes % 2 == 0 && passes > 0;
    SpanRecorder::setActive(trace_this ? &spans : nullptr);
    PassOutput out;
    report.attempt();
    try {
      out = workload->pass(passes == 0, trace_this);
    } catch (const std::exception& e) {
      SpanRecorder::setActive(nullptr);
      report.fail(std::string("pass threw: ") + e.what());
      break;
    }
    SpanRecorder::setActive(nullptr);
    if (passes == 0) {
      fingerprint = out.fingerprint;
      batches_per_pass = out.batches;
    } else {
      if (out.fingerprint != fingerprint) {
        report.fail("pass " + std::to_string(passes) +
                    " simulated results differ from pass 0");
      }
      addPass(trace_this ? traced : plain, out);
    }
    ++passes;
  }
  printf("passes %d of %lld simulated batches/steps each, %.2f s\n", passes,
         static_cast<long long>(batches_per_pass), nowSec() - start);
  if (passes < 2) return 1;

  // Peak RSS of the measured passes, read before the output check runs.
  const HostCounters host = hostCounters();
  // Output check: a reduced-shape Functional twin of the workload.
  workload->check(report);
  workload->report(report, opt.trace);
  const std::string pass_note =
      std::to_string(plain.setup_s.size()) + " timed passes";
  if (!opt.trace) {
    report.endToEnd("setup_s", median(plain.setup_s), "s",
                    static_cast<std::int64_t>(plain.setup_s.size()),
                    "median over " + pass_note);
    // Host wall clock per batch drifts with the machine's load far more
    // than the end-to-end bounds allow, so it is a per-layer metric; it
    // is printed here for the record.
    printf("host   ms_per_batch %.6f ms, median over %s\n",
           median(plain.ms_per_batch), pass_note.c_str());
    report.endToEnd("peak_rss_mb", host.peak_rss_mb, "MB", 1,
                    "after " + std::to_string(passes) + " passes of " +
                        std::to_string(batches_per_pass) +
                        " batches/steps, each pass on fresh systems");
    report.endToEnd("paper_speedup_err", paperSpeedupError(false), "%", 6,
                    "mean |ln(measured/paper)| over T1+T2");
  } else {
    report.layer("host.ms_per_batch", median(plain.ms_per_batch), "ms",
                 "median over " + pass_note);
    report.layer("host.minflt_per_batch", median(plain.minflt_per_batch),
                 "count");
    report.layer("sim.host_ns_per_event", median(plain.ns_per_event), "ns");
    const double untraced_ms = median(plain.ms_per_batch);
    const double traced_ms = median(traced.ms_per_batch);
    report.layer("trace.overhead_ms_per_batch", traced_ms - untraced_ms, "ms",
                 "traced minus untraced host ms per batch");
    // Host self time per layer (the span-name prefix) per simulated
    // batch of the traced passes.
    std::map<std::string, std::pair<double, std::int64_t>> by_layer;
    for (const auto& [name, st] : spans.selfTimes()) {
      auto& slot = by_layer[name.substr(0, name.find('.'))];
      slot.first += st.first;
      slot.second += st.second;
    }
    const double n = static_cast<double>(traced.batches);
    for (const auto& [layer, st] : by_layer) {
      printf("spans  %-8s self %10.4f ms per batch (%lld spans)\n",
             layer.c_str(), 1000.0 * st.first / n,
             static_cast<long long>(st.second));
    }
    const auto self_ms = [&](const char* layer) {
      const auto it = by_layer.find(layer);
      return it == by_layer.end() ? 0.0 : 1000.0 * it->second.first / n;
    };
    report.layer("engine.host_ms_per_batch", self_ms("engine"), "ms",
                 "self time of engine spans");
    report.layer("core.host_ms_per_batch", self_ms("core"), "ms",
                 "self time of runBatch/finish spans");
    report.layer("dlrm.host_ms_per_step", self_ms("dlrm"), "ms",
                 "self time of pipeline/trainer spans");
    mkdir(".bench_build", 0755);
    mkdir(opt.out_dir.c_str(), 0755);
    const std::string base = opt.out_dir + "/" + opt.workload;
    spans.writeJson(base + "-spans.json");
    workload->writeTimeline(base + "-timeline.json");
    printf("wrote %s-spans.json (%zu spans)\n", base.c_str(),
           spans.spans().size());
  }

  report.complete(opt.trace ? perLayerMetrics() : endToEndMetrics(), opt.trace);
  printf("attempted %lld failed %lld\n",
         static_cast<long long>(report.attempted()),
         static_cast<long long>(report.failed()));
  printf("%s\n", report.json(opt.trace).c_str());
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
