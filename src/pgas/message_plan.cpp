#include "pgas/message_plan.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::pgas {

std::int64_t MessagePlan::totalPayloadBytes() const {
  std::int64_t total = 0;
  for (const auto& slice : flows) {
    for (const auto& f : slice) total += f.payload_bytes;
  }
  return total;
}

std::int64_t MessagePlan::totalMessages() const {
  std::int64_t total = 0;
  for (const auto& slice : flows) {
    for (const auto& f : slice) total += f.n_messages;
  }
  return total;
}

MessagePlan makeUniformPlan(const std::vector<std::int64_t>& payload_bytes,
                            int self, int slices,
                            std::int64_t message_bytes) {
  PGASEMB_CHECK(slices >= 1, "plan needs >= 1 slice");
  PGASEMB_CHECK(message_bytes >= 1, "message size must be positive");
  // Visits the plan's flows slice by slice within each destination.
  // Distributes whole messages over slices with exact conservation
  // (largest-remainder); only the final message may be partial.
  const auto for_each_flow = [&](auto&& emit) {
    for (int dst = 0; dst < static_cast<int>(payload_bytes.size()); ++dst) {
      if (dst == self) continue;
      const std::int64_t total = payload_bytes[static_cast<std::size_t>(dst)];
      PGASEMB_CHECK(total >= 0, "negative payload for dst ", dst);
      if (total == 0) continue;
      const std::int64_t total_msgs =
          (total + message_bytes - 1) / message_bytes;
      std::int64_t emitted_msgs = 0;
      std::int64_t emitted_bytes = 0;
      for (int s = 0; s < slices; ++s) {
        const std::int64_t upto =
            total_msgs * (s + 1) / slices;
        const std::int64_t msgs = upto - emitted_msgs;
        if (msgs == 0) continue;
        emitted_msgs = upto;
        const std::int64_t bytes =
            std::min(msgs * message_bytes, total - emitted_bytes);
        emitted_bytes += bytes;
        emit(static_cast<std::size_t>(s), SliceFlow{dst, bytes, msgs});
      }
    }
  };
  // Count first so each slice allocates once, at its exact size.
  std::vector<std::size_t> counts(static_cast<std::size_t>(slices), 0);
  for_each_flow([&](std::size_t s, const SliceFlow&) { ++counts[s]; });
  MessagePlan plan;
  plan.slices = slices;
  plan.flows.resize(static_cast<std::size_t>(slices));
  for (std::size_t s = 0; s < counts.size(); ++s) {
    plan.flows[s].reserve(counts[s]);
  }
  for_each_flow([&](std::size_t s, const SliceFlow& f) {
    plan.flows[s].push_back(f);
  });
  return plan;
}

}  // namespace pgasemb::pgas
