// One benchmark workload: a fixed, seeded amount of simulated work (a
// "pass") that perfbench repeats to time the host, plus the simulated
// results of that work and a reduced-shape Functional output check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "dlrm/model.hpp"
#include "engine/experiment.hpp"

namespace perfbench {

/// What one pass measured on the host, and a fingerprint of every
/// simulated number it produced (passes of one run must agree on it).
struct PassOutput {
  double setup_s = 0.0;        ///< system assembly, model and cache build
  double loop_s = 0.0;         ///< the batch/step loop (and its runner)
  std::int64_t batches = 0;    ///< simulated batches or steps in the loop
  std::int64_t minor_faults = 0;
  std::uint64_t events = 0;    ///< simulator events processed
  std::string fingerprint;
};

/// Host accounting of one retriever's share of a pass: set-up runs from
/// construction to setupDone(), the measured loop from there to add().
class PassClock {
 public:
  PassClock() : faults0_(hostCounters().minor_faults), t0_(nowSec()) {}
  void setupDone() { t1_ = nowSec(); }
  /// Adds the share to `out`: set-up and loop seconds, the simulated
  /// batches or steps, simulator events and minor page faults.
  void add(PassOutput& out, std::int64_t batches, std::uint64_t events) const;

 private:
  std::int64_t faults0_;
  double t0_;
  double t1_ = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the fixed work once. `record` = keep the simulated results
  /// for report(); `traced` = spans are being recorded (the simulated
  /// timeline is attached on the first traced pass).
  virtual PassOutput pass(bool record, bool traced) = 0;

  /// End-to-end simulated metrics (untraced run) and per-layer counters
  /// (traced run) of the recorded pass.
  virtual void report(Report& report, bool trace) = 0;

  /// Reduced-shape Functional-mode twin: runs both retrievers on the
  /// workload's features and compares their outputs bit for bit.
  virtual void check(Report& report) = 0;

  /// Writes the simulated timeline of the first traced pass, if any.
  virtual void writeTimeline(const std::string& /*path*/) {}
};

std::unique_ptr<Workload> makePaper(const Options& opt);
std::unique_ptr<Workload> makeServe(const Options& opt);
std::unique_ptr<Workload> makeTrain(const Options& opt);
std::unique_ptr<Workload> makeMultinode(const Options& opt);

/// Paper T1/T2 reproduction: the six measured EMB-layer speedups next
/// to the paper's, and their mean |ln(measured / paper)| in percent.
double paperSpeedupError(bool print);

/// Appends `v` with all its digits to a fingerprint.
void fingerprintAdd(std::string& fp, double v);

/// The DLRM the paper and train workloads run (and their twins).
pgasemb::dlrm::DlrmConfig dlrmModel(int dim);

/// 4 nodes x 4 GPUs (or the twin's smaller layout) with IB-like
/// inter-node links and the hierarchical all-to-all.
pgasemb::engine::ExperimentConfig multinodeConfig(int nodes,
                                                  int gpus_per_node);

/// The skewed, cached serving node the serve workload (and its twin)
/// runs: single-id Zipf(1.0) lookups, hot-row replicas armed.
pgasemb::engine::ExperimentConfig serveConfig(std::int64_t max_batch);

/// End-to-end metrics of a closed-loop workload from its per-operation
/// simulated latencies (untraced run only): mean, median and tail
/// latency, and the samples per simulated second it sustains — with no
/// latency limit every sample counts toward goodput too.
void closedLoopEndToEnd(Report& rep, bool trace, const std::string& suffix,
                        const std::vector<double>& op_ms,
                        const std::vector<double>& op_samples,
                        const std::string& what);

// Output checks (check.cpp): reduced-shape Functional twins.
void checkPaper(Report& rep, std::uint64_t seed);
void checkServe(Report& rep, std::uint64_t seed);
void checkTrain(Report& rep, std::uint64_t seed);
void checkMultinode(Report& rep, std::uint64_t seed);

}  // namespace perfbench
