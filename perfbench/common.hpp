// Shared pieces of perfbench: the metric report, host
// counters, the span recorder of the traced run, the timing decorator
// registered in the retriever registry, and the seeded input helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "emb/sparse_batch.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// The two retrievers every workload compares, with their metric suffix.
struct Scheme {
  const char* registry_name;
  const char* suffix;
};
inline constexpr Scheme kSchemes[] = {{"pgas_fused", "pgas"},
                                      {"nccl_collective", "nccl"}};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span and timeline files.
  std::string out_dir = ".bench_build/traces";
};

// --- Host clock and counters ----------------------------------------------

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostCounters {
  double peak_rss_mb = 0.0;
  std::int64_t minor_faults = 0;
};
HostCounters hostCounters();

/// Median; the mean of the middle two for an even count.
double median(std::vector<double> v);
/// Nearest-rank percentile of raw samples, p in (0, 100].
double percentile(std::vector<double> v, double p);
/// The highest whole percentile (from 50 up to 99) with at least ten
/// samples beyond it, the tail a run of `n` samples can resolve.
int tailPercentile(std::size_t n);

// --- Metric report ----------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Collects metrics by name; prints each as it is set and the final
/// JSON line. End-to-end metrics come from untraced runs, per-layer ones
/// from the traced run.
class Report {
 public:
  void endToEnd(const std::string& name, double value, const std::string& unit,
                std::int64_t samples, const std::string& note = "");
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// One failed operation, with the reason printed.
  void fail(const std::string& why);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// Holds the run's metric group to `defs`: a per-layer counter the
  /// workload did not report reads 0 (its layer was bypassed); a missing
  /// end-to-end metric, an unknown name or a wrong unit fails the run.
  void complete(const std::vector<MetricDef>& defs, bool trace);

  /// The last stdout line: the JSON result object.
  std::string json(bool trace) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> e2e_;
  std::map<std::string, Entry> layer_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- Host-time spans (traced run only) --------------------------------------

/// In-memory span log of the traced run. Spans nest by call order; each
/// records its parent and the batch id it serves, and the log is written
/// out once at exit.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< host seconds
    double end = 0.0;
    int parent = -1;
    std::int64_t batch = -1;
  };

  /// The active recorder, or nullptr outside the traced run.
  static SpanRecorder* active();
  static void setActive(SpanRecorder* recorder);

  /// Opens a span under the innermost open one, tagged with the
  /// current batch id; returns its id for end().
  int begin(const std::string& name);
  void end(int id);

  /// The batch id new spans inherit (set by the workload per batch).
  void setBatch(std::int64_t batch) { batch_ = batch; }
  std::int64_t batch() const { return batch_; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total self time (span minus the time its children
  /// cover) in seconds, and the number of spans.
  std::map<std::string, std::pair<double, std::int64_t>> selfTimes() const;
  void writeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t batch_ = -1;
};

/// RAII span; a no-op when no recorder is active (the untraced runs).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

/// Registers "timed:<name>" for both schemes: a decorator that forwards
/// to the named retriever and wraps every runBatch()/finish() in a span.
/// Returns the registry name a workload should use for `scheme`.
std::string retrieverName(const Scheme& scheme, bool traced);

// --- Seeded inputs -----------------------------------------------------------

/// A statistical batch carrying one realization of uniform pooling:
/// each table's sum of `batch_size` U(min, max) bag sizes is drawn from
/// its normal limit and stored as the table's max pooling, so the
/// batch's expected gather work is the realized one (per-table means sit
/// on a half-bag grid; error diffusion keeps each GPU's block of tables
/// at its realized total). Paper-scale batches are far too large to
/// materialize; this keeps the per-batch input variation they carry.
pgasemb::emb::SparseBatch realizedPoolingBatch(
    const pgasemb::emb::SparseBatchSpec& base,
    pgasemb::Rng& rng);

/// Samples of one closed-loop batch: the next `queries` queries of a
/// zipf:1.1:1-64 size stream, cut short (the overflowing query opens the
/// next batch) when they would exceed `capacity`.
class QueryPacker {
 public:
  QueryPacker(std::int64_t capacity, int queries, std::uint64_t seed);
  std::int64_t next();

 private:
  std::int64_t capacity_;
  int queries_;
  pgasemb::Rng rng_;
  std::int64_t carry_ = 0;
};

}  // namespace perfbench
