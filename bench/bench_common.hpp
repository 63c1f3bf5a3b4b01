// Shared scaffolding for the pgasemb_bench experiments.
//
// All experiments dispatch retrievers by registry name through
// engine::ScenarioRunner; the shared --retrievers=a,b,c flag picks which
// strategies a sweep compares (first name = reference/baseline).
//
// Operator errors (bad flag values, unknown names, configs validate()
// rejects) throw InvalidArgumentError; pgasemb_bench's main turns that
// into a pointed message and exit status 2.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "engine/scenario_runner.hpp"
#include "trace/report.hpp"
#include "util/cli.hpp"
#include "util/expect.hpp"
#include "util/table.hpp"

namespace pgasemb::bench {

// The pgasemb_bench experiments (one row each in its table).
/// T1/T2 and Figs 5, 6, 8, 9: the weak or strong problem swept over
/// 1..--max-gpus, rendered as the speedup table + scaling chart or as
/// the runtime breakdown.
template <bool weak, bool breakdown>
int scalingSweep(CliParser& cli, int argc, char** argv);
int commVolume(CliParser& cli, int argc, char** argv);
int ablationPooling(CliParser& cli, int argc, char** argv);
int ablationHeader(CliParser& cli, int argc, char** argv);
int sharding(CliParser& cli, int argc, char** argv);
int ablationBatch(CliParser& cli, int argc, char** argv);
int ablationOverlap(CliParser& cli, int argc, char** argv);
int inputPartition(CliParser& cli, int argc, char** argv);
int skew(CliParser& cli, int argc, char** argv);
int pipelined(CliParser& cli, int argc, char** argv);
int aggregator(CliParser& cli, int argc, char** argv);
int backward(CliParser& cli, int argc, char** argv);
int training(CliParser& cli, int argc, char** argv);
int cache(CliParser& cli, int argc, char** argv);
int multinode(CliParser& cli, int argc, char** argv);
int faults(CliParser& cli, int argc, char** argv);
int serving(CliParser& cli, int argc, char** argv);
int simcore(CliParser& cli, int argc, char** argv);

/// The paper's comparison pair: NCCL collective baseline vs PGAS fused.
inline constexpr const char* kDefaultRetrievers = "nccl_collective,pgas_fused";

/// Splits a comma-separated flag value, dropping spaces and empty items.
inline std::vector<std::string> splitList(const std::string& spec) {
  std::vector<std::string> items;
  std::string current;
  for (const char c : spec) {
    if (c == ',') {
      if (!current.empty()) items.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) items.push_back(current);
  return items;
}

/// Parses a comma-separated flag value item by item with `parse`;
/// `flag` needs at least one `what`.
template <typename Parse>
auto parseList(const std::string& spec, const char* flag, const char* what,
               Parse parse) {
  std::vector<decltype(parse(spec))> out;
  for (const auto& item : splitList(spec)) out.push_back(parse(item));
  PGASEMB_CHECK(!out.empty(), flag, " needs at least one ", what);
  return out;
}

inline std::string registeredRetrieverNames() {
  std::string known;
  for (const auto& name : core::RetrieverRegistry::instance().names()) {
    known += (known.empty() ? "" : ",") + name;
  }
  return known;
}

/// Registers the shared --retrievers flag (comma-separated registry
/// names; first is the reference the others are compared against).
inline void addRetrieversFlag(CliParser& cli,
                              const char* defaults = kDefaultRetrievers) {
  cli.addString("retrievers", defaults,
                "comma-separated retriever names to compare (first = "
                "reference); registered: " + registeredRetrieverNames());
}

/// Parses the --retrievers flag into a validated, non-empty name list,
/// so a typoed name fails before any run starts.
inline std::vector<std::string> retrieverList(const CliParser& cli) {
  const auto names = splitList(cli.getString("retrievers"));
  if (names.empty()) {
    throw InvalidArgumentError("--retrievers needs at least one name "
                               "(registered: " +
                               registeredRetrieverNames() + ")");
  }
  for (const auto& name : names) {
    if (!core::RetrieverRegistry::instance().contains(name)) {
      throw InvalidArgumentError("--retrievers: unknown retriever '" + name +
                                 "' (registered: " +
                                 registeredRetrieverNames() + ")");
    }
  }
  return names;
}

/// Registers the shared --no-coalesce flag (TimingOnly fast-path escape
/// hatch). Simulated results are identical either way — the flag exists
/// for parity checks and for debugging with per-message event order.
inline void addCoalesceFlag(CliParser& cli) {
  cli.addBool("no-coalesce", false,
              "disable the TimingOnly per-flow event-coalescing fast path "
              "(simulated results are identical; runs are just slower)");
}

/// Applies the --no-coalesce flag to a config.
inline void applyCoalesceFlag(const CliParser& cli,
                              engine::ExperimentConfig& cfg) {
  if (cli.getBool("no-coalesce")) cfg.coalesce_flows = false;
}

/// Registers the shared --simsan flag (opt-in dynamic checking) and its
/// strict-effects escalation.
inline void addSimsanFlag(CliParser& cli) {
  cli.addBool("simsan", false,
              "attach the simsan happens-before race / bounds / lifetime "
              "checker and print its per-run report (timings unchanged)");
  cli.addBool("simsan-strict", false,
              "strict-effects mode (implies --simsan): record actual "
              "simulated-memory touches per kernel/transfer and fail when "
              "an access escapes the declared MemEffect footprint");
}

/// Applies --simsan / --simsan-strict to a config.
inline void applySimsanFlags(const CliParser& cli,
                             engine::ExperimentConfig& cfg) {
  cfg.simsan = cli.getBool("simsan-strict") ? engine::SimsanMode::kStrict
               : cli.getBool("simsan")      ? engine::SimsanMode::kChecker
                                            : engine::SimsanMode::kOff;
}

/// Registers the shared replica-cache flags. Defaults (0, 0.0) keep
/// every code path — and all stdout/CSV output — identical to a
/// cache-less build.
inline void addCacheFlags(CliParser& cli) {
  cli.addInt("cache-rows", 0,
             "hot-row replica cache capacity per table per GPU (rows); "
             "0 disables the cache");
  cli.addDouble("zipf-alpha", 0.0,
                "Zipf skew of the raw embedding indices (0 = uniform)");
}

/// Applies the --cache-rows / --zipf-alpha flags to a config.
inline void applyCacheFlags(const CliParser& cli,
                            engine::ExperimentConfig& cfg) {
  cfg.cache_rows = cli.getInt("cache-rows");
  cfg.layer.zipf_alpha = cli.getDouble("zipf-alpha");
}

/// Registers the shared fault-injection flags. Defaults ("" spec) build
/// no injector, keeping every code path — and all stdout/CSV output —
/// identical to a fault-free build.
inline void addFaultFlags(CliParser& cli) {
  cli.addString("faults", "",
                "comma-separated fault specs, e.g. "
                "link-degrade:0-1:0.5,link-flap:*:1.0-2.0,straggler:2:3; "
                "empty = no fault injection");
  cli.addInt("fault-seed", 0,
             "seed for fault windows not pinned in the spec (same seed = "
             "same schedule)");
  cli.addDouble("fault-horizon-ms", 100.0,
                "horizon (ms) the seeded windows of unwindowed fault specs "
                "are drawn over — size it to the run length so the faults "
                "land mid-run");
  cli.addDouble("slo-ms", 0.0,
                "per-batch latency SLO in ms; after --slo-patience "
                "consecutive over-SLO batches the run falls back to "
                "nccl_collective (0 = no fallback policy)");
  cli.addInt("slo-patience", 3,
             "consecutive over-SLO batches tolerated before falling back");
}

/// Applies the fault flags to a config. With the default empty --faults
/// and zero --slo-ms this is a no-op.
inline void applyFaultFlags(const CliParser& cli,
                            engine::ExperimentConfig& cfg) {
  const std::string spec = cli.getString("faults");
  if (!spec.empty()) {
    cfg.faults = fault::FaultPlan::parse(
        spec, static_cast<std::uint64_t>(cli.getInt("fault-seed")),
        SimTime::ms(cli.getDouble("fault-horizon-ms")));
  }
  const double slo_ms = cli.getDouble("slo-ms");
  if (slo_ms > 0.0) {
    cfg.fallback.slo_ms = slo_ms;
    cfg.fallback.patience = static_cast<int>(cli.getInt("slo-patience"));
  }
}

/// Registers the shared serving admission-control flags (DESIGN.md
/// §13). Defaults (unbounded queue, no deadline, controller off) keep
/// the serving path — and all stdout/CSV output — identical to a
/// pre-admission build.
inline void addAdmissionFlags(CliParser& cli) {
  cli.addInt("admit-queue", 0,
             "bounded admission queue (pending queries); when full, "
             "--shed-policy decides which query pays (0 = unbounded)");
  cli.addString("shed-policy", "block",
                "full-queue policy: block (admit anyway, count it) | "
                "shed-oldest (evict the queue head) | shed-newest (drop "
                "the arrival)");
  cli.addDouble("query-deadline-ms", 0.0,
                "per-query queue-wait deadline (ms of simulated time); "
                "queries still queued past it are shed as deadline "
                "misses (0 = off)");
  cli.addInt("admit-window", 0,
             "sliding-window admission controller: completed queries per "
             "p95 window; sheds incoming load while the window p95 "
             "exceeds --slo-ms (0 = off)");
}

/// Applies the admission flags to a config. With the defaults this is a
/// no-op.
inline void applyAdmissionFlags(const CliParser& cli,
                                engine::ExperimentConfig& cfg) {
  cfg.serving.admit_queue = cli.getInt("admit-queue");
  cfg.serving.shed_policy =
      engine::parseShedPolicy(cli.getString("shed-policy"));
  cfg.serving.query_deadline_ms = cli.getDouble("query-deadline-ms");
  cfg.serving.admit_window = static_cast<int>(cli.getInt("admit-window"));
}

/// Registers the shared multi-node flags (DESIGN.md §12). Defaults
/// (flat all-to-all, no compression, per-flow NIC queues) keep every
/// code path — and all stdout/CSV output — identical to earlier builds.
inline void addMultinodeFlags(CliParser& cli) {
  cli.addBool("hierarchical-a2a", false,
              "route inter-node traffic hierarchically: NVLink gather to "
              "the node leader, one aggregated flow per node pair, NVLink "
              "scatter (no effect on a single node)");
  cli.addDouble("compress-bound", 0.0,
                "absolute error bound for lossy compression of inter-node "
                "flows (0 = off); Functional runs really transcode, so "
                "the reported error is measured, not estimated");
  cli.addBool("compress-adaptive", false,
              "pick the per-window quantization width from observed NIC "
              "egress utilization instead of always using the tightest "
              "width the bound allows (requires --compress-bound > 0)");
  cli.addBool("nic-shared-queue", false,
              "serialize each node's inter-node flows through one shared "
              "NIC injection queue instead of per-flow queues");
}

/// Applies the multi-node flags to a config.
inline void applyMultinodeFlags(const CliParser& cli,
                                engine::ExperimentConfig& cfg) {
  cfg.hierarchical_a2a = cli.getBool("hierarchical-a2a");
  cfg.compress_bound = cli.getDouble("compress-bound");
  cfg.compress_adaptive = cli.getBool("compress-adaptive");
  cfg.nic_shared_queue = cli.getBool("nic-shared-queue");
}

/// IB-like inter-node links (pinned by tests/multinode_test.cpp):
/// 25 GB/s, 5 us, 64 B headers, 10 M msg/s. No-op on a single node.
inline void applyInterNodeLink(engine::ExperimentConfig& cfg, int nodes) {
  if (nodes <= 1) return;
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
}

/// Prints one simsan verdict line per run, prefixed by label(point)
/// (only when reports exist, so output without --simsan is unchanged).
template <typename Point, typename Label>
void printSimsanReports(const std::vector<Point>& points, Label label) {
  bool any = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      if (!run.result.sanitizer) continue;
      if (!any) printf("\nsimsan:\n");
      any = true;
      printf("  %s %-16s %s\n", label(p).c_str(), run.retriever.c_str(),
             run.result.sanitizer->report().c_str());
    }
  }
}

inline void printSimsanReports(const std::vector<trace::ScalingPoint>& pts) {
  printSimsanReports(pts, [](const trace::ScalingPoint& p) {
    return std::to_string(p.gpus) + " GPU(s)";
  });
}

/// A "1.23x" table cell.
inline std::string timesCell(double ratio, int digits = 2) {
  return ConsoleTable::num(ratio, digits) + "x";
}

inline void printHeader(const std::string& title) {
  printf("==========================================================\n");
  printf("%s\n", title.c_str());
  printf("==========================================================\n");
}

/// One flat perf record for scripts/check_perf.py: the constructor
/// opens `path` (named by `flag` in errors) and writes the bench name,
/// out() takes the bench's scalar lines, field() appends one object per
/// metric, and close() ends the record and reports the path.
class JsonRecord {
 public:
  JsonRecord(const std::string& path, const char* flag, const char* bench)
      : path_(path), out_(fopen(path.c_str(), "w")) {
    PGASEMB_CHECK(out_ != nullptr, flag, ": cannot open ", path);
    fprintf(out_, "{\n  \"bench\": \"%s\",\n", bench);
  }

  FILE* out() const { return out_; }

  /// Appends `  "key": {"names[i]": values[i], ...}`, each value printed
  /// with `fmt` (integral counts print exactly with "%.0f").
  void field(const char* key, const std::vector<std::string>& names,
             const char* fmt, const std::vector<double>& values) {
    fprintf(out_, "%s  \"%s\": {", fields_++ == 0 ? "" : ",\n", key);
    for (std::size_t i = 0; i < names.size(); ++i) {
      fprintf(out_, "%s\"%s\": ", i == 0 ? "" : ", ", names[i].c_str());
      fprintf(out_, fmt, values[i]);
    }
    fprintf(out_, "}");
  }

  void close() {
    fprintf(out_, "\n}\n");
    fclose(out_);
    printf("wrote %s\n", path_.c_str());
  }

 private:
  std::string path_;
  FILE* out_;
  int fields_ = 0;
};

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Host cost of a simulated run: the wall clock around it and the
/// simulator events it processed (the simulated result is unaffected).
struct TimedRun {
  double wall_ms_per_batch = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events_processed = 0;
};

/// Runs `retriever` `repeats` times and keeps the fastest wall time:
/// transient host noise only ever slows a run down.
inline TimedRun timeRuns(engine::ScenarioRunner& runner,
                         const std::string& retriever, int repeats = 1) {
  TimedRun r;
  double best_s = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)runner.run(retriever);
    const double s = secondsSince(t0);
    const auto processed =
        runner.builder().system().simulator().eventsProcessed();
    PGASEMB_CHECK(i == 0 || processed == r.events_processed,
                  "timed run event count drifted across repeats");
    if (i == 0 || s < best_s) best_s = s;
    r.events_processed = processed;
  }
  r.wall_ms_per_batch = best_s * 1000.0 / runner.config().num_batches;
  r.events_per_sec =
      best_s > 0.0 ? static_cast<double>(r.events_processed) / best_s : 0.0;
  return r;
}

}  // namespace pgasemb::bench
