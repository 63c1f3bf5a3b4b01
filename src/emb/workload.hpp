// The paper's experiment configurations (§IV) plus synthetic workload
// skew: Zipf(alpha) row-index popularity, the distribution real DLRM
// inference traffic follows ("Dissecting Embedding Bag Performance in
// DLRM Inference" — a small hot set absorbs most lookups).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "emb/layer.hpp"
#include "util/rng.hpp"

namespace pgasemb::emb {

/// Weak scaling (§IV-A): per GPU, 64 tables x 1M rows, dim 64, batch
/// 16384, pooling U(1, 128), 100 batches.
EmbLayerSpec weakScalingLayerSpec(int num_gpus);

/// Strong scaling (§IV-B): 96 tables x 1M rows total (sized to fill one
/// 32 GB V100), dim 64, batch 16384, pooling U(1, 32), 100 batches.
EmbLayerSpec strongScalingLayerSpec();

/// Number of inference batches both tests accumulate over.
inline constexpr int kPaperNumBatches = 100;

/// A small functional-mode spec for examples/tests (same shape, tiny
/// sizes).
EmbLayerSpec tinyLayerSpec();

/// Skewed inference-serving workload for the hot-row replica cache
/// (pgasemb_bench cache): per GPU, 16 tables x 1M rows, dim 64, batch
/// 16384, single-id features (pooling 1), raw indices drawn Zipf(alpha)
/// over the row space so "capacity = x% of rows" maps directly onto the
/// analytic top-x% mass.
EmbLayerSpec cacheServingLayerSpec(int num_gpus);

/// Multi-node retrieval workload (pgasemb_bench multinode --sweep): per
/// GPU, 16 tables x 1M rows, dim 64, batch 2048, single-id features
/// (pooling 1, so the pooled-value range is exactly 1.0 and the
/// inter-node codec's per-table bound maps directly to quantizer
/// bits). The small batch keeps 16-node x 4-GPU sweeps tractable while
/// every (src, dst) pair still moves >100 KB per batch.
EmbLayerSpec multinodeServingLayerSpec(int num_gpus);

/// Open-loop serving workload (pgasemb_bench serving): per GPU, 8 tables
/// x 1M rows, dim 64, pooling U(1, 32), batch shape = the dynamic batcher's
/// max batch size (retriever buffers are sized once; partially filled
/// batches pad with NULL inputs).
EmbLayerSpec servingLayerSpec(int num_gpus, std::int64_t max_batch_size);

// --- Zipf(alpha) row popularity -------------------------------------------
//
// Rank r (1-based) has probability r^-alpha / H(n, alpha).  Raw index
// (r - 1) is rank r, so the hottest rows are the lowest indices and a
// frequency-ranked cache of capacity C holds exactly raws [0, C).

/// Generalized harmonic number H(n, alpha) = sum_{i=1..n} i^-alpha.
/// Exact for small n; Euler–Maclaurin midpoint tail beyond, so it is
/// smooth and strictly increasing in n (the sampler inverts it).
double zipfHarmonic(std::uint64_t n, double alpha);

/// Probability mass of the top-k ranks under Zipf(alpha) over [1, n]:
/// H(k, alpha) / H(n, alpha).  alpha = 0 degenerates to k / n.
double zipfTopMass(std::uint64_t n, double alpha, std::uint64_t k);

/// Deterministic inverse-CDF Zipf sampler over ranks [1, n]: one
/// uniform draw per sample, binary-searched through the same
/// zipfHarmonic the analytic mass uses, so empirical top-k frequency
/// converges to zipfTopMass by construction.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  /// Rank in [1, n]; subtract 1 for a raw row index.
  std::uint64_t sample(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  double prefixMass(std::uint64_t k) const;  ///< H(k, alpha), memoized head

  std::uint64_t n_;
  double alpha_;
  double total_;                 ///< H(n, alpha)
  std::vector<double> prefix_;   ///< H(1..kZipfExactPrefix, alpha)
};

// --- Per-query size distributions (serving) -------------------------------
//
// A query is one inference request carrying `size` candidate samples
// (DeepRecSys-style: the ranking model scores `size` items per user
// request). The dynamic batcher concatenates whole queries into one
// retrieval batch, so a batch's active sample count is the sum of its
// queries' sizes.

struct QuerySizeSpec {
  enum class Kind { kFixed, kUniform, kZipf };
  Kind kind = Kind::kFixed;
  /// kFixed: every query has `lo` samples. kUniform: U(lo, hi)
  /// inclusive. kZipf: size lo + (r - 1) with rank r ~ Zipf(alpha)
  /// over [1, hi - lo + 1] — most queries small, a heavy tail of large
  /// ones.
  std::int64_t lo = 1;
  std::int64_t hi = 1;
  double alpha = 1.0;  ///< kZipf only

  // pgaslint:allow(unused-decl) analytic oracle of the size sampler tests
  double meanSize() const;
};

/// Parses "fixed:N", "uniform:LO-HI", or "zipf:ALPHA:LO-HI" (e.g.
/// "zipf:1.2:1-256"). Throws InvalidArgumentError on malformed specs.
QuerySizeSpec parseQuerySizeSpec(const std::string& spec);

/// Round-trip of parseQuerySizeSpec, for reports and CSV keys.
std::string formatQuerySizeSpec(const QuerySizeSpec& spec);

/// Deterministic per-query sample-count sampler over a QuerySizeSpec
/// (one rng draw per query for the non-fixed kinds).
class QuerySizeSampler {
 public:
  explicit QuerySizeSampler(const QuerySizeSpec& spec);

  std::int64_t sample(Rng& rng) const;
  const QuerySizeSpec& spec() const { return spec_; }

 private:
  QuerySizeSpec spec_;
  std::optional<ZipfSampler> zipf_;  ///< kZipf: rank 1 = size `lo`
};

}  // namespace pgasemb::emb
