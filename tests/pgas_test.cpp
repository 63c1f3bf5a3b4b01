// Unit tests for the PGAS runtime: symmetric heap, message plans,
// in-kernel injection with quiet semantics, the communication counter,
// and the async aggregator.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  PgasRuntime runtime;

  explicit Rig(int gpus,
               gpu::ExecutionMode mode = gpu::ExecutionMode::kTimingOnly,
               fabric::LinkParams link = {},
               std::optional<AggregatorParams> aggregator = std::nullopt)
      : system(makeConfig(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, link)),
        runtime(system, fabric, aggregator) {}

  static gpu::SystemConfig makeConfig(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = mode;
    return cfg;
  }
};

// --- Symmetric heap ----------------------------------------------------------

TEST(SymmetricHeapTest, AllocatesOnEveryPe) {
  Rig rig(4, gpu::ExecutionMode::kFunctional);
  auto buf = rig.runtime.heap().alloc(256);
  EXPECT_EQ(buf.numPes(), 4);
  EXPECT_EQ(buf.sizePerPe(), 256);
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(buf.on(pe).size(), 256);
    EXPECT_EQ(rig.system.device(pe).memoryUsedBytes(), 256 * 4);
  }
  rig.runtime.heap().free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), 0);
}

TEST(SymmetricHeapTest, PartitionsAreIndependentStorage) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  auto buf = rig.runtime.heap().alloc(8);
  buf.span(0)[3] = 1.0f;
  EXPECT_EQ(buf.span(1)[3], 0.0f);
  rig.runtime.heap().free(buf);
}

TEST(SymmetricHeapTest, BadPeThrows) {
  Rig rig(2);
  auto buf = rig.runtime.heap().alloc(8);
  EXPECT_THROW(buf.on(5), InvalidArgumentError);
  rig.runtime.heap().free(buf);
}

// --- Message plans -----------------------------------------------------------

TEST(MessagePlanTest, UniformPlanConservesBytes) {
  const auto plan = makeUniformPlan({0, 1000, 2000, 3000}, 0, 7, 256);
  EXPECT_EQ(plan.slices, 7);
  EXPECT_EQ(plan.totalPayloadBytes(), 6000);
  // ceil(per-slice bytes / 256) summed >= 6000/256.
  EXPECT_GE(plan.totalMessages(), 24);
}

TEST(MessagePlanTest, SelfTrafficExcluded) {
  const auto plan = makeUniformPlan({500, 500}, 1, 4, 256);
  EXPECT_EQ(plan.totalPayloadBytes(), 500);
  for (const auto& slice : plan.flows) {
    for (const auto& f : slice) EXPECT_EQ(f.dst, 0);
  }
}

TEST(MessagePlanTest, SpreadIsEven) {
  const auto plan = makeUniformPlan({0, 100000}, 0, 10, 256);
  std::int64_t total = 0;
  for (const auto& slice : plan.flows) {
    ASSERT_EQ(slice.size(), 1u);
    // Whole-message granularity: each slice within one message of even.
    EXPECT_NEAR(static_cast<double>(slice[0].payload_bytes), 10000.0, 256.0);
    total += slice[0].payload_bytes;
  }
  EXPECT_EQ(total, 100000);
}

TEST(MessagePlanTest, TinyPayloadStillDelivered) {
  const auto plan = makeUniformPlan({0, 3}, 0, 8, 256);
  EXPECT_EQ(plan.totalPayloadBytes(), 3);
  EXPECT_EQ(plan.totalMessages(), 1);
}

// --- In-kernel injection + quiet ---------------------------------------------

TEST(PgasRuntimeTest, AttachedPlanInjectsDuringKernel) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "fused";
  desc.duration = SimTime::ms(1);
  auto plan = makeUniformPlan({0, 1 << 20}, 0, 16, 256);
  fabric::TimeSeriesCounter c;
  rig.fabric.setDeliverySeries(&c);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  EXPECT_EQ(rig.fabric.totalPayloadBytes(), 1 << 20);
  // The fabric's delivery series is the paper's comm counter (Figs
  // 7/10): it records every put, spread across the kernel over several
  // non-empty buckets.
  EXPECT_DOUBLE_EQ(c.total(), 1 << 20);
  int nonzero = 0;
  for (std::size_t i = 0; i < c.numBuckets(); ++i) {
    if (c.bucket(i) > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, 8);
}

TEST(PgasRuntimeTest, QuietExtendsKernelWhenCommDominates) {
  // Tiny compute, huge communication: the kernel must end at delivery.
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "comm_bound";
  desc.duration = SimTime::us(10);
  auto plan = makeUniformPlan({0, 256 << 20}, 0, 4, 256);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  // 256 MiB at ~42 GB/s effective >> 10 us of compute.
  EXPECT_GT(rig.system.stream(0).lastCompletion(), SimTime::ms(5));
}

TEST(PgasRuntimeTest, QuietIsFreeWhenCommHidden) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "hidden";
  desc.duration = SimTime::ms(10);
  auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  const SimTime end = rig.system.stream(0).lastCompletion();
  // Completion within a tight bound of compute end (last slice drain).
  EXPECT_LT(end, SimTime::ms(10.2) +
                     rig.system.costModel().kernel_launch_overhead);
}

TEST(PgasRuntimeTest, BadSourcePeThrows) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.duration = SimTime::us(1);
  EXPECT_THROW(
      rig.runtime.attachMessagePlan(desc, 7, makeUniformPlan({0, 1}, 0, 1,
                                                             256)),
      InvalidArgumentError);
}

// --- Stream-ordered barrier -------------------------------------------------

TEST(PgasBarrierTest, OrdersEveryStreamAfterEveryPeersQuiet) {
  // PE 1's kernel is tiny but its puts are huge, so its quiet is the
  // last event before the barrier; work behind the barrier on every PE
  // starts only after it — quiet alone would order PE 1's stream only.
  Rig rig(3);
  gpu::KernelDesc comm;
  comm.name = "comm_bound";
  comm.duration = SimTime::us(10);
  rig.runtime.attachMessagePlan(comm, 1,
                                makeUniformPlan({64 << 20, 0, 0}, 1, 4, 256));
  rig.system.launchKernel(1, comm);
  std::vector<SimTime> starts(3);
  rig.system.setKernelObserver([&](int device, const std::string& name,
                                   SimTime start, SimTime, SimTime) {
    if (name == "after") starts[static_cast<std::size_t>(device)] = start;
  });
  const SimTime host_before = rig.system.hostNow();
  rig.runtime.barrierAllOnStream();
  EXPECT_EQ(rig.system.hostNow(), host_before);  // no host time charged
  for (int g = 0; g < 3; ++g) {
    gpu::KernelDesc after;
    after.name = "after";
    after.duration = SimTime::us(1);
    rig.system.launchKernel(g, after);
  }
  rig.system.syncAll();
  const SimTime quiet = SimTime::ms(1);  // 64 MiB >> 10 us of compute
  ASSERT_GT(rig.system.stream(1).lastCompletion(), quiet);
  for (int g = 0; g < 3; ++g) {
    EXPECT_GT(starts[static_cast<std::size_t>(g)], quiet) << "gpu " << g;
  }
}

TEST(PgasBarrierTest, ReusableAfterSyncButNotWhileInFlight) {
  Rig rig(2);
  gpu::KernelDesc slow;
  slow.name = "slow";
  slow.duration = SimTime::ms(1);
  rig.system.launchKernel(0, slow);
  rig.runtime.barrierAllOnStream();
  // PE 0's record still waits behind its kernel: a second barrier now
  // would re-arm events the first one has not released.
  EXPECT_THROW(rig.runtime.barrierAllOnStream(), InvalidArgumentError);
  rig.system.syncAll();
  rig.runtime.barrierAllOnStream();
  rig.system.syncAll();
}

// --- Aggregator ----------------------------------------------------------------

TEST(AggregatorTest, ConservesBytesAndReducesMessages) {
  const auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  AggregatorParams params;
  params.aggregation_bytes = 64 * 1024;
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  EXPECT_EQ(agg.totalPayloadBytes(), plan.totalPayloadBytes());
  EXPECT_LT(agg.totalMessages(), plan.totalMessages() / 10);
}

TEST(AggregatorTest, SizeTriggeredFlushesAreFullBuffers) {
  const auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  AggregatorParams params;
  params.aggregation_bytes = 64 * 1024;
  params.max_wait = SimTime::sec(1);  // effectively never by time
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  // All but the final quiet flush are exactly aggregation_bytes.
  std::int64_t full = 0, partial = 0;
  for (const auto& slice : agg.flows) {
    for (const auto& f : slice) {
      if (f.payload_bytes == params.aggregation_bytes) {
        ++full;
      } else {
        ++partial;
      }
    }
  }
  EXPECT_EQ(full, (1 << 20) / params.aggregation_bytes);
  EXPECT_EQ(partial, 0);  // 1 MiB divides evenly into 16 KiB buffers
}

TEST(AggregatorTest, MaxWaitFlushesPartialBuffers) {
  // Slow trickle to one destination: without the wait trigger everything
  // would flush only at the end.
  MessagePlan plan;
  plan.slices = 100;
  plan.flows.resize(100);
  for (int s = 0; s < 100; ++s) {
    plan.flows[static_cast<std::size_t>(s)].push_back(
        SliceFlow{1, 128, 1});
  }
  AggregatorParams params;
  params.aggregation_bytes = 1 << 20;      // never by size
  params.max_wait = SimTime::us(100);      // 10 slices of a 1 ms kernel
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  std::int64_t flushes = agg.totalMessages();
  EXPECT_GT(flushes, 5);
  EXPECT_LT(flushes, 20);
  EXPECT_EQ(agg.totalPayloadBytes(), 100 * 128);
}

TEST(AggregatorTest, QuietDrainsRemainder) {
  MessagePlan plan;
  plan.slices = 4;
  plan.flows.resize(4);
  plan.flows[0].push_back(SliceFlow{1, 100, 1});
  AggregatorParams params;  // defaults: large threshold, long wait
  params.aggregation_bytes = 1 << 20;
  params.max_wait = SimTime::sec(10);
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  EXPECT_EQ(agg.totalPayloadBytes(), 100);
  // Drained at the last slice.
  EXPECT_FALSE(agg.flows[3].empty());
}

TEST(AggregatorTest, AggregatedKernelFasterOnMessageRateLimitedLink) {
  fabric::LinkParams nic;
  nic.bandwidth_bytes_per_sec = 25e9;
  nic.latency = SimTime::us(5);
  nic.header_bytes = 64;
  nic.max_messages_per_sec = 10e6;  // IB-like message-rate ceiling

  struct Run {
    SimTime done;
    std::int64_t messages;
  };
  auto run = [&](std::optional<AggregatorParams> agg) {
    Rig rig(2, gpu::ExecutionMode::kTimingOnly, nic, agg);
    gpu::KernelDesc desc;
    desc.name = "k";
    desc.duration = SimTime::ms(1);
    auto plan = makeUniformPlan({0, 64 << 20}, 0, 64, 256);
    rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
    rig.system.launchKernel(0, desc);
    rig.system.syncAll();
    return Run{rig.system.stream(0).lastCompletion(),
               rig.fabric.totalMessages()};
  };

  AggregatorParams params;
  params.aggregation_bytes = 128 * 1024;
  const Run raw = run(std::nullopt);
  const Run aggregated = run(params);
  // 256 K messages at 10 M msg/s = 26 ms un-aggregated; aggregation
  // collapses that to ~bandwidth time.
  EXPECT_LT(aggregated.messages, raw.messages);
  EXPECT_LT(aggregated.done, raw.done / 4);
}

TEST(AggregatorTest, InvalidParamsThrow) {
  const auto plan = makeUniformPlan({0, 100}, 0, 2, 256);
  AggregatorParams params;
  params.aggregation_bytes = 0;
  EXPECT_THROW(aggregatePlan(plan, SimTime::ms(1), params),
               InvalidArgumentError);
}

// --- Symmetric heap lifetime -------------------------------------------------

TEST(SymmetricHeapTest, FreeReleasesEveryPartitionAndInvalidates) {
  Rig rig(2);
  const auto used0 = rig.system.device(0).memoryUsedBytes();
  const auto used1 = rig.system.device(1).memoryUsedBytes();
  auto buf = rig.runtime.heap().alloc(256);
  EXPECT_TRUE(buf.valid());
  EXPECT_EQ(buf.numPes(), 2);
  EXPECT_EQ(buf.sizePerPe(), 256);
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), used0 + 256 * 4);
  EXPECT_EQ(rig.system.device(1).memoryUsedBytes(), used1 + 256 * 4);
  rig.runtime.heap().free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(buf.numPes(), 0);
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), used0);
  EXPECT_EQ(rig.system.device(1).memoryUsedBytes(), used1);
}

TEST(SymmetricHeapTest, FreedHeapSpaceIsReusedSymmetrically) {
  Rig rig(2);
  auto a = rig.runtime.heap().alloc(128);
  const auto offset = a.on(0).offset();
  EXPECT_EQ(a.on(1).offset(), offset);  // symmetric address on every PE
  rig.runtime.heap().free(a);
  auto b = rig.runtime.heap().alloc(128);
  EXPECT_EQ(b.on(0).offset(), offset);
  EXPECT_EQ(b.on(1).offset(), offset);
  rig.runtime.heap().free(b);
}

TEST(SymmetricBufferTest, InvalidPeThrows) {
  Rig rig(2);
  auto buf = rig.runtime.heap().alloc(16);
  EXPECT_THROW(buf.on(-1), InvalidArgumentError);
  EXPECT_THROW(buf.on(2), InvalidArgumentError);
  const auto& cbuf = buf;
  EXPECT_THROW(cbuf.on(2), InvalidArgumentError);
  rig.runtime.heap().free(buf);
  SymmetricBuffer empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.on(0), InvalidArgumentError);
}

}  // namespace
}  // namespace pgasemb::pgas
