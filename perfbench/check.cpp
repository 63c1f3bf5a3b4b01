// Output checks: a reduced-shape Functional-mode twin of each workload
// runs both retrievers on the same seeded inputs — same features (skew
// and cache, hierarchy and fault plan, both backward schemes) at a size
// where values are really computed — and compares every per-GPU output
// (for `train`, the updated tables) bit for bit. A mismatch or a thrown
// run is a failed operation.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>

#include "dlrm/pipeline.hpp"
#include "dlrm/trainer.hpp"
#include "engine/batch_executor.hpp"
#include "engine/serving_runner.hpp"
#include "engine/system_builder.hpp"
#include "fault/injector.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pgasemb;

namespace {

/// Everything one retriever produced in a twin run, one entry per
/// compared operation (batch or step).
using Outputs = std::vector<std::vector<float>>;

/// Index of the first element whose bits differ (or the shorter length
/// when the sizes differ); -1 when identical.
std::int64_t firstDifference(std::span<const float> a,
                             std::span<const float> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<std::int64_t>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<std::int64_t>(n);
}

/// The comparison must catch the smallest possible difference: one ulp
/// in one element. Run before every check, so a comparison that went
/// blind fails the run instead of passing it.
void selfTest(Report& rep) {
  std::vector<float> a(257);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.25f * static_cast<float>(i);
  }
  std::vector<float> b = a;
  b[131] = std::nextafter(b[131], 1e9f);
  rep.attempt();
  if (firstDifference(a, a) != -1 || firstDifference(a, b) != 131 ||
      firstDifference(a, std::span<const float>(a).first(256)) != 256) {
    rep.fail("output check self-test: a one-ulp difference went unnoticed");
  }
}

/// Compares each operation's outputs of `other` against `ref`.
void compare(Report& rep, const std::string& what, const Outputs& ref,
             const Outputs& other) {
  if (ref.size() != other.size()) {
    rep.attempt();
    rep.fail(what + ": " + std::to_string(other.size()) + " outputs vs " +
             std::to_string(ref.size()));
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    rep.attempt();
    const auto at = firstDifference(ref[i], other[i]);
    if (at >= 0) {
      rep.fail(what + ": output " + std::to_string(i) + " differs at element " +
               std::to_string(at));
    }
  }
}

void append(std::vector<float>& dst, std::span<const float> src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Runs `body` for both schemes, collecting outputs; a throw fails the
/// check. Returns the per-scheme outputs (empty when it threw).
template <typename Body>
std::vector<Outputs> runSchemes(Report& rep, const std::string& what,
                                Body body) {
  std::vector<Outputs> out;
  for (const auto& scheme : kSchemes) {
    Outputs outputs;
    try {
      body(scheme, outputs);
    } catch (const std::exception& e) {
      rep.attempt();
      rep.fail(what + " " + scheme.suffix + " threw: " + e.what());
      outputs.clear();
    }
    out.push_back(std::move(outputs));
  }
  return out;
}

void summarize(Report& rep, const std::string& what,
            const std::vector<Outputs>& outs, std::int64_t failed_before) {
  compare(rep, what + " pgas vs nccl", outs[1], outs[0]);
  printf("check  %s: %zu outputs per retriever, %s\n", what.c_str(),
         outs[0].size(),
         rep.failed() == failed_before ? "bit-identical" : "MISMATCH");
}

}  // namespace

void checkPaper(Report& rep, std::uint64_t seed) {
  selfTest(rep);
  const std::int64_t failed_before = rep.failed();
  engine::ExperimentConfig cfg;
  cfg.num_gpus = 4;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 1LL << 30;
  cfg.layer.total_tables = 16;
  cfg.layer.rows_per_table = 2000;
  cfg.layer.dim = 16;
  cfg.layer.batch_size = 64;
  cfg.layer.min_pooling = 1;
  cfg.layer.max_pooling = 8;
  const auto outs = runSchemes(
      rep, "paper twin", [&](const Scheme& scheme, Outputs& outputs) {
        engine::SystemBuilder builder(cfg);
        auto retriever = core::RetrieverRegistry::instance().create(
            scheme.registry_name, builder.context());
        dlrm::DlrmModel model(dlrmModel(cfg.layer.dim), builder.layer());
        dlrm::InferencePipeline pipeline(model, *retriever);
        Rng rng(seed ^ 0xc4ec);
        for (int b = 0; b < 4; ++b) {
          const auto sparse =
              emb::SparseBatch::generateUniform(cfg.layer.batchSpec(), rng);
          const auto dense = dlrm::DenseBatch::generateUniform(
              cfg.layer.batch_size, 13, rng);
          pipeline.runBatch(dense, sparse);
          std::vector<float> all;
          for (int g = 0; g < cfg.num_gpus; ++g) {
            append(all, retriever->output(g).span());
            append(all, pipeline.predictions()[static_cast<std::size_t>(g)]);
          }
          outputs.push_back(std::move(all));
        }
      });
  summarize(rep, "paper twin (forward outputs + predictions)", outs,
         failed_before);
}

void checkServe(Report& rep, std::uint64_t seed) {
  selfTest(rep);
  const std::int64_t failed_before = rep.failed();
  engine::ExperimentConfig cfg = serveConfig(64);
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 1LL << 30;
  cfg.layer.total_tables = 16;
  cfg.layer.rows_per_table = 4000;
  cfg.layer.index_space = 4000;
  cfg.layer.dim = 16;
  cfg.cache_rows = 40;
  // The batch body of the serving path, fed whole-query batches padded
  // to the fixed shape exactly as the dynamic batcher forms them.
  const auto outs = runSchemes(
      rep, "serve twin", [&](const Scheme& scheme, Outputs& outputs) {
        engine::SystemBuilder builder(cfg);
        engine::BatchExecutor exec(builder, scheme.registry_name);
        engine::ExperimentResult result;
        QueryPacker packer(cfg.layer.batch_size, 8, seed ^ 0x5e4e);
        Rng rng(seed ^ 0x5e4f);
        for (int b = 0; b < 6; ++b) {
          emb::SparseBatchSpec spec = cfg.layer.batchSpec();
          spec.active_samples = packer.next();
          exec.runOne(emb::SparseBatch::generateUniform(spec, rng), result);
          std::vector<float> all;
          for (int g = 0; g < cfg.num_gpus; ++g) {
            append(all, exec.output(g).span());
          }
          outputs.push_back(std::move(all));
        }
        exec.finishRun(result);
        if (result.cacheHitRate() <= 0.0) {
          throw Error("replica cache served no lookups");
        }
        // The full serving front end in Functional mode, with admission.
        engine::ExperimentConfig sc = cfg;
        sc.serving.num_queries = 200;
        sc.serving.qps = 64000.0;
        sc.serving.seed = seed ^ 0x5e50;
        sc.serving.admit_queue = 32;
        sc.serving.shed_policy = engine::ShedPolicy::kShedOldest;
        engine::ServingRunner runner(sc);
        const auto sv = *runner.run(scheme.registry_name).serving;
        if (sv.queries + sv.totalShed() != sc.serving.num_queries) {
          throw Error("served + shed queries != offered");
        }
      });
  summarize(rep, "serve twin (skew + replica cache)", outs, failed_before);
}

void checkTrain(Report& rep, std::uint64_t seed) {
  selfTest(rep);
  const std::int64_t failed_before = rep.failed();
  engine::ExperimentConfig cfg;
  cfg.num_gpus = 4;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 1LL << 30;
  cfg.layer.total_tables = 8;
  cfg.layer.rows_per_table = 500;
  cfg.layer.dim = 8;
  cfg.layer.batch_size = 32;
  cfg.layer.min_pooling = 1;
  cfg.layer.max_pooling = 4;
  const auto outs = runSchemes(
      rep, "train twin", [&](const Scheme& scheme, Outputs& outputs) {
        engine::SystemBuilder builder(cfg);
        auto retriever = core::RetrieverRegistry::instance().create(
            scheme.registry_name, builder.context());
        dlrm::DlrmModel model(dlrmModel(cfg.layer.dim), builder.layer());
        dlrm::DlrmTrainer trainer(
            model, *retriever, builder.comm(), builder.runtime(), 0.05f,
            std::string(scheme.suffix) == "pgas"
                ? dlrm::BackwardScheme::kPgasAtomics
                : dlrm::BackwardScheme::kCollective);
        Rng rng(seed ^ 0x7ec4);
        std::vector<float> losses;
        for (int s = 0; s < 3; ++s) {
          const auto sparse =
              emb::SparseBatch::generateUniform(cfg.layer.batchSpec(), rng);
          const auto dense = dlrm::DenseBatch::generateUniform(
              cfg.layer.batch_size, 13, rng);
          const double loss = trainer.step(dense, sparse).loss;
          losses.push_back(static_cast<float>(loss));
        }
        outputs.push_back(losses);
        for (std::int64_t t = 0; t < cfg.layer.total_tables; ++t) {
          std::vector<float> table;
          for (std::int64_t r = 0; r < cfg.layer.rows_per_table; ++r) {
            for (int c = 0; c < cfg.layer.dim; ++c) {
              table.push_back(builder.layer().table(t).weight(r, c));
            }
          }
          outputs.push_back(std::move(table));
        }
      });
  summarize(rep, "train twin (losses + updated tables)", outs, failed_before);
}

void checkMultinode(Report& rep, std::uint64_t seed) {
  selfTest(rep);
  const std::int64_t failed_before = rep.failed();
  engine::ExperimentConfig cfg = multinodeConfig(2, 2);
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 1LL << 30;
  cfg.layer.total_tables = 16;
  cfg.layer.rows_per_table = 1000;
  cfg.layer.dim = 8;
  cfg.layer.batch_size = 32;
  constexpr int kBatches = 6;
  const auto run = [&](const engine::ExperimentConfig& c, const char* name,
                       Outputs* outputs) {
    engine::SystemBuilder builder(c);
    engine::BatchExecutor exec(builder, name);
    engine::ExperimentResult result;
    Rng rng(seed ^ 0x4d4e);
    for (int b = 0; b < kBatches; ++b) {
      exec.runOne(emb::SparseBatch::generateUniform(c.layer.batchSpec(), rng),
                  result);
      if (outputs == nullptr) continue;
      std::vector<float> all;
      for (int g = 0; g < c.num_gpus; ++g) append(all, exec.output(g).span());
      outputs->push_back(std::move(all));
    }
    exec.finishRun(result);
    finalizeResult(builder, exec,
                   emb::SparseBatch::statistical(c.layer.batchSpec()), result);
    return result;
  };
  // Pin the fault windows inside the shorter (PGAS) fault-free run.
  const double span_ms = run(cfg, "pgas_fused", nullptr).stats.total.toMs();
  char plan[256];
  snprintf(plan, sizeof(plan),
           "nic-flap:1:%.6f-%.6f,leader-fail:0:%.6f-%.6f,"
           "nic-degrade:1:0.5:%.6f-%.6f",
           0.2 * span_ms, 0.35 * span_ms, 0.3 * span_ms, 0.7 * span_ms,
           0.5 * span_ms, 0.9 * span_ms);
  cfg.faults = fault::FaultPlan::parse(plan, seed);
  const auto outs = runSchemes(
      rep, "multinode twin", [&](const Scheme& scheme, Outputs& outputs) {
        const auto result = run(cfg, scheme.registry_name, &outputs);
        if (!result.resilience || result.resilience->faults_injected == 0) {
          throw Error("the fault plan never fired");
        }
      });
  summarize(rep, "multinode twin (hierarchy + fault plan)", outs, failed_before);
}

}  // namespace perfbench
