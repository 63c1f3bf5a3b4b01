#include "engine/scenario_runner.hpp"

#include "engine/batch_executor.hpp"

namespace pgasemb::engine {

ExperimentConfig weakScalingConfig(int num_gpus) {
  ExperimentConfig cfg;
  cfg.num_gpus = num_gpus;
  cfg.layer = emb::weakScalingLayerSpec(num_gpus);
  return cfg;
}

ExperimentConfig strongScalingConfig(int num_gpus) {
  ExperimentConfig cfg;
  cfg.num_gpus = num_gpus;
  cfg.layer = emb::strongScalingLayerSpec();
  return cfg;
}

ExperimentConfig cacheServingConfig(int num_gpus) {
  ExperimentConfig cfg;
  cfg.num_gpus = num_gpus;
  cfg.layer = emb::cacheServingLayerSpec(num_gpus);
  // PCIe-class per-pair bandwidth: the HPS-style inference node the
  // replica cache targets is exchange-bound, unlike the NVLink training
  // testbed (where the lookup compute dominates and a cache could only
  // ever trim the exchange tail).
  cfg.link.bandwidth_bytes_per_sec = 12e9;
  return cfg;
}

ScenarioRunner::ScenarioRunner(const ExperimentConfig& config)
    : builder_(config) {}

ExperimentResult ScenarioRunner::run(const std::string& retriever_name) {
  const ExperimentConfig& config = builder_.config();
  builder_.reset();
  BatchExecutor exec(builder_, retriever_name,
                     BatchExecutor::SloMode::kPerBatch);

  ExperimentResult result;
  Rng rng(config.batch_seed);
  const bool functional = config.mode == gpu::ExecutionMode::kFunctional;
  // Timing-only runs reuse one statistical batch: the workload is the
  // distribution's expectation every batch, as in the paper's uniform
  // synthetic inputs.
  emb::SparseBatch statistical =
      emb::SparseBatch::statistical(config.layer.batchSpec());
  for (int b = 0; b < config.num_batches; ++b) {
    if (functional) {
      const auto batch =
          emb::SparseBatch::generateUniform(config.layer.batchSpec(), rng);
      exec.runOne(batch, result);
    } else {
      exec.runOne(statistical, result);
    }
  }
  exec.finishRun(result);

  finalizeResult(builder_, exec, statistical, result);
  return result;
}

std::vector<NamedResult> ScenarioRunner::runAll(
    const std::vector<std::string>& names) {
  std::vector<NamedResult> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    out.push_back({name, run(name)});
  }
  return out;
}

}  // namespace pgasemb::engine
