// EmbeddingRetriever: the public API of this library.
//
// A retriever executes the distributed EMB-layer forward pass of Fig 4 —
// model-parallel lookup on every GPU followed by the layout conversion to
// data parallelism — and reports per-batch phase timings.  Two
// implementations reproduce the paper's §IV comparison:
//
//   CollectiveRetriever  — the NCCL baseline: lookup kernel -> sync ->
//                          all_to_all_single(async) -> wait -> unpack.
//   PgasFusedRetriever   — the paper's contribution: one fused kernel
//                          whose one-sided writes land directly in the
//                          final remote output tensor; quiet at the end.
#pragma once

#include <string>
#include <vector>

#include "emb/layer.hpp"
#include "emb/sparse_batch.hpp"
#include "gpu/device.hpp"
#include "util/time.hpp"

namespace pgasemb::core {

/// Timing of one EMB-layer forward pass (simulated host wall clock).
struct BatchTiming {
  SimTime total = SimTime::zero();

  // Baseline phase boundaries (zero for the PGAS path, which has no
  // phases). `compute_phase` includes launch and the post-kernel sync;
  // `comm_phase` spans the collective call to wait() returning;
  // `unpack_phase` spans the unpack kernel and its sync.
  SimTime compute_phase = SimTime::zero();
  SimTime comm_phase = SimTime::zero();
  SimTime unpack_phase = SimTime::zero();

  /// Pure wire time of the collective (first injection to last
  /// delivery).  The paper's "Communication" component; its §IV-A2a
  /// estimation method (re-run with a single float and subtract)
  /// approximates exactly this.
  SimTime wire_time = SimTime::zero();

  // Replica-cache accounting (zero when no cache is attached): raw
  // indices looked up, indices served from the local replica, and
  // exchange payload bytes (across all GPUs) the served bags saved.
  double cache_lookups = 0.0;
  double cache_hits = 0.0;
  double cache_saved_bytes = 0.0;

  /// Paper-style three-way split (baseline): "Communication" is the
  /// pure wire time, and "Sync + Unpack" is everything else in the comm
  /// and unpack phases. The comm-phase residual is clamped at zero so a
  /// retriever whose wire time exceeds its comm phase (e.g. communication
  /// fully hidden behind compute) can never report a negative component.
  SimTime communication() const { return wire_time; }
  SimTime syncUnpack() const {
    const SimTime residual = comm_phase - wire_time;
    return (residual > SimTime::zero() ? residual : SimTime::zero()) +
           unpack_phase;
  }
};

/// Accumulates timings over an experiment's batches: the same fields,
/// summed, plus the batch count.
struct RetrieverStats : BatchTiming {
  int batches = 0;

  void add(const BatchTiming& t);
  double cacheHitRate() const {
    return cache_lookups > 0.0 ? cache_hits / cache_lookups : 0.0;
  }
};

class EmbeddingRetriever {
 public:
  virtual ~EmbeddingRetriever() = default;

  virtual std::string name() const = 0;

  /// Run the EMB-layer forward for one batch. In functional mode the
  /// per-GPU output tensors are filled; in timing mode only the clock
  /// advances.
  virtual BatchTiming runBatch(const emb::SparseBatch& batch) = 0;

  /// Completes any work still in flight after the last runBatch() and
  /// returns the extra host time it consumed.  Bulk-synchronous
  /// strategies finish inside runBatch() and return zero (the default);
  /// pipelined strategies drain here.  Every driver (ScenarioRunner,
  /// benches) calls this once after the batch loop so all strategies
  /// share one lifecycle: N x runBatch(), then finish().
  virtual SimTime finish() { return SimTime::zero(); }

  /// GPU `gpu`'s final output tensor ([mini-batch sample][table][col]).
  virtual gpu::DeviceBuffer& output(int gpu) = 0;
};

}  // namespace pgasemb::core
