// Runs one closed-loop schedule with a simsan SeededBug armed: the
// test-only seam of the certification tests. The bug is armed on the
// checker of a freshly built assembly (a reset() would rebuild the
// checker and disarm it), and the run takes the same public path as
// ScenarioRunner and perfbench: BatchExecutor + finalizeResult.
#pragma once

#include <string>

#include "engine/batch_executor.hpp"
#include "simsan/checker.hpp"
#include "util/expect.hpp"

namespace pgasemb::engine {

/// Runs `retriever` over `config`'s timing-only batch schedule with
/// `bug` armed (SeededBug::kNone = the same run, bug-free). Needs a
/// `config.simsan` mode other than kOff.
inline ExperimentResult runWithSeededBug(const ExperimentConfig& config,
                                         const std::string& retriever,
                                         simsan::SeededBug bug) {
  SystemBuilder builder(config);
  PGASEMB_CHECK(builder.sanitizer() != nullptr, "seeded bugs need simsan");
  builder.sanitizer()->seedBug(bug);
  BatchExecutor exec(builder, retriever);
  ExperimentResult result;
  const auto batch = emb::SparseBatch::statistical(config.layer.batchSpec());
  for (int b = 0; b < config.num_batches; ++b) exec.runOne(batch, result);
  exec.finishRun(result);
  finalizeResult(builder, exec, batch, result);
  return result;
}

}  // namespace pgasemb::engine
