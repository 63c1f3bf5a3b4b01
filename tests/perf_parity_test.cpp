// Golden-parity suite for the TimingOnly fast path (DESIGN.md 9).
//
// The per-flow coalescing optimization must never change a simulated
// result — only host wall-clock. Every retriever is run twice on the
// same config, coalescing on vs off (--no-coalesce), and the FULL
// ExperimentResult is compared field by field: per-batch timings, the
// accumulated stats, wire totals, and the comm-volume time series.
// A final test asserts the fast path actually engages (strictly fewer
// host events) so a silently disabled optimization cannot pass as
// "parity".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/scenario_runner.hpp"
#include "fault/plan.hpp"

namespace pgasemb::engine {
namespace {

const std::vector<std::string> kRetrievers = {
    "nccl_collective", "pgas_fused", "nccl_pipelined"};

ExperimentConfig smallConfig() {
  ExperimentConfig cfg = weakScalingConfig(2);
  cfg.num_batches = 4;
  return cfg;
}

void expectTimingEq(const core::BatchTiming& a, const core::BatchTiming& b,
                    const std::string& what) {
  EXPECT_EQ(a.total, b.total) << what;
  EXPECT_EQ(a.compute_phase, b.compute_phase) << what;
  EXPECT_EQ(a.comm_phase, b.comm_phase) << what;
  EXPECT_EQ(a.unpack_phase, b.unpack_phase) << what;
  EXPECT_EQ(a.wire_time, b.wire_time) << what;
  EXPECT_EQ(a.cache_lookups, b.cache_lookups) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_saved_bytes, b.cache_saved_bytes) << what;
}

/// Runs every retriever with coalescing on and off and requires the two
/// ExperimentResults to be identical in every simulated field.
void expectParity(ExperimentConfig cfg) {
  for (const auto& name : kRetrievers) {
    cfg.coalesce_flows = true;
    ScenarioRunner fast(cfg);
    const ExperimentResult on = fast.run(name);

    cfg.coalesce_flows = false;
    ScenarioRunner slow(cfg);
    const ExperimentResult off = slow.run(name);

    const std::string what = "retriever " + name;
    EXPECT_EQ(on.stats.batches, off.stats.batches) << what;
    EXPECT_EQ(on.stats.total, off.stats.total) << what;
    EXPECT_EQ(on.stats.compute_phase, off.stats.compute_phase) << what;
    EXPECT_EQ(on.stats.comm_phase, off.stats.comm_phase) << what;
    EXPECT_EQ(on.stats.unpack_phase, off.stats.unpack_phase) << what;
    EXPECT_EQ(on.stats.wire_time, off.stats.wire_time) << what;
    EXPECT_EQ(on.stats.cache_lookups, off.stats.cache_lookups) << what;
    EXPECT_EQ(on.stats.cache_hits, off.stats.cache_hits) << what;
    EXPECT_EQ(on.stats.cache_saved_bytes, off.stats.cache_saved_bytes)
        << what;

    ASSERT_EQ(on.per_batch.size(), off.per_batch.size()) << what;
    for (std::size_t i = 0; i < on.per_batch.size(); ++i) {
      expectTimingEq(on.per_batch[i], off.per_batch[i],
                     what + " batch " + std::to_string(i));
    }

    EXPECT_EQ(on.total_wire_bytes, off.total_wire_bytes) << what;
    EXPECT_EQ(on.total_wire_messages, off.total_wire_messages) << what;
    EXPECT_EQ(on.bucket_width, off.bucket_width) << what;
    ASSERT_EQ(on.wire_bytes_over_time.size(), off.wire_bytes_over_time.size())
        << what;
    for (std::size_t i = 0; i < on.wire_bytes_over_time.size(); ++i) {
      EXPECT_EQ(on.wire_bytes_over_time[i], off.wire_bytes_over_time[i])
          << what << " bucket " << i;
    }
    EXPECT_EQ(on.lookup_compute_throughput, off.lookup_compute_throughput)
        << what;
    EXPECT_EQ(on.lookup_memory_throughput, off.lookup_memory_throughput)
        << what;
  }
}

TEST(PerfParityTest, PlainTimingOnly) { expectParity(smallConfig()); }

TEST(PerfParityTest, WithReplicaCache) {
  ExperimentConfig cfg = smallConfig();
  cfg.cache_rows = 128;
  cfg.layer.zipf_alpha = 0.9;
  expectParity(cfg);
}

TEST(PerfParityTest, WithFaults) {
  // A fault plan disables coalescing internally (drop windows need the
  // per-message timeline), so both runs take the same path — the test
  // still guards the eligibility gate against wrongly staying on.
  ExperimentConfig cfg = smallConfig();
  cfg.faults = fault::FaultPlan::parse("link-degrade:0-1:0.5", 7,
                                       SimTime::ms(50.0));
  expectParity(cfg);
}

TEST(PerfParityTest, WithCacheAndFaults) {
  ExperimentConfig cfg = smallConfig();
  cfg.cache_rows = 128;
  cfg.layer.zipf_alpha = 0.9;
  cfg.faults = fault::FaultPlan::parse("link-flap:*:1.0-2.0", 11,
                                       SimTime::ms(50.0));
  expectParity(cfg);
}

TEST(PerfParityTest, CoalescingActuallyEngages) {
  // Parity alone could be satisfied by a fast path that never arms.
  // On the plain TimingOnly config the PGAS run must process strictly
  // fewer host events with coalescing on.
  ExperimentConfig cfg = smallConfig();
  cfg.coalesce_flows = true;
  ScenarioRunner fast(cfg);
  (void)fast.run("pgas_fused");
  const auto fast_events =
      fast.builder().system().simulator().eventsProcessed();

  cfg.coalesce_flows = false;
  ScenarioRunner slow(cfg);
  (void)slow.run("pgas_fused");
  const auto slow_events =
      slow.builder().system().simulator().eventsProcessed();

  EXPECT_LT(fast_events, slow_events);
  // The win is per message-plan slice; with 128 slices per put it is
  // well over an order of magnitude, not a rounding artifact.
  EXPECT_LT(fast_events * 10, slow_events);
}

TEST(PerfParityTest, SimsanDisablesCoalescingButKeepsResults) {
  // Under --simsan the per-message path re-arms (the checker needs every
  // delivery); simulated timings must still match a plain coalesced run.
  ExperimentConfig cfg = smallConfig();
  cfg.coalesce_flows = true;
  ScenarioRunner plain(cfg);
  const ExperimentResult fast = plain.run("pgas_fused");

  cfg.simsan = SimsanMode::kChecker;
  ScenarioRunner checked(cfg);
  const ExperimentResult san = checked.run("pgas_fused");

  EXPECT_EQ(fast.stats.total, san.stats.total);
  EXPECT_EQ(fast.total_wire_bytes, san.total_wire_bytes);
  EXPECT_EQ(fast.total_wire_messages, san.total_wire_messages);
  ASSERT_TRUE(san.sanitizer.has_value());
  EXPECT_TRUE(san.sanitizer->clean()) << san.sanitizer->report();
}

}  // namespace
}  // namespace pgasemb::engine
