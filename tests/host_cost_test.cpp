// Host-cost gate: a TimingOnly steady state must not grow host memory
// with simulated time.
//
// Each test warms a paper-scale run up, then counts the minor page
// faults (getrusage ru_minflt) a further stretch of batches or steps
// adds. Host state that grows with simulated time (a dense time series
// nobody reads) or a per-step allocation large enough to be mmapped
// (dense gradients nobody reads) faults fresh pages in and trips the
// bound. The bounds are absolute, so no BENCH_*.json baseline is
// involved. Labelled bench_perf, which sanitizer runs leave out: their
// shadow memory faults on its own.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <memory>
#include <string>

#include "core/registry.hpp"
#include "dlrm/pipeline.hpp"
#include "dlrm/trainer.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/system_builder.hpp"

namespace pgasemb::dlrm {
namespace {

constexpr long kMaxMinorFaults = 64;

long minorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

DlrmConfig paperModel(int dim) {
  DlrmConfig m;
  m.dense_dim = 13;
  m.top_mlp = {512, 256, dim};
  m.bottom_mlp = {512, 256, 1};
  return m;
}

TEST(HostCostTest, InferencePipelineBatchesDoNotFault) {
  const auto cfg = engine::weakScalingConfig(4);
  const auto sparse = emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (const std::string name : {"nccl_collective", "pgas_fused"}) {
    engine::SystemBuilder builder(cfg);
    const auto retriever =
        core::RetrieverRegistry::instance().create(name, builder.context());
    DlrmModel model(paperModel(cfg.layer.dim), builder.layer());
    InferencePipeline pipeline(model, *retriever);
    Rng rng(1);
    const auto dense = DenseBatch::generateUniform(
        cfg.layer.batch_size, model.config().dense_dim, rng);
    for (int b = 0; b < 20; ++b) pipeline.runBatch(dense, sparse);
    const long before = minorFaults();
    for (int b = 0; b < 500; ++b) pipeline.runBatch(dense, sparse);
    EXPECT_LE(minorFaults() - before, kMaxMinorFaults) << name;
  }
}

TEST(HostCostTest, TrainerStepsDoNotFault) {
  const auto cfg = engine::weakScalingConfig(4);
  const auto sparse = emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (const auto scheme :
       {BackwardScheme::kCollective, BackwardScheme::kPgasAtomics}) {
    engine::SystemBuilder builder(cfg);
    const auto retriever = core::RetrieverRegistry::instance().create(
        scheme == BackwardScheme::kPgasAtomics ? "pgas_fused"
                                               : "nccl_collective",
        builder.context());
    DlrmModel model(paperModel(cfg.layer.dim), builder.layer());
    DlrmTrainer trainer(model, *retriever, builder.comm(), builder.runtime(),
                        0.01f, scheme);
    Rng rng(1);
    const auto dense = DenseBatch::generateUniform(
        cfg.layer.batch_size, model.config().dense_dim, rng);
    for (int s = 0; s < 2; ++s) trainer.step(dense, sparse);
    const long before = minorFaults();
    for (int s = 0; s < 10; ++s) trainer.step(dense, sparse);
    EXPECT_LE(minorFaults() - before, kMaxMinorFaults)
        << (scheme == BackwardScheme::kPgasAtomics ? "pgas" : "collective");
  }
}

}  // namespace
}  // namespace pgasemb::dlrm
