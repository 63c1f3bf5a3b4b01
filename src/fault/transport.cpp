#include "fault/transport.hpp"

namespace pgasemb::fault {

Transport::Transport(fabric::Fabric& fabric, FaultInjector* injector,
                     fabric::InterNodeCodec* codec, bool hierarchical)
    : fabric_(&fabric),
      injector_(injector),
      codec_(codec),
      hierarchical_(hierarchical && fabric.topology().numNodes() > 1) {}

std::int64_t Transport::encode(int src, int dst, std::int64_t payload,
                               SimTime at) const {
  const auto& topo = fabric_->topology();
  if (codec_ == nullptr || payload <= 0 || payload % 4 != 0 ||
      topo.routeClass(src, dst) != fabric::LinkClass::kInter) {
    return payload;
  }
  const int node = topo.nodeOf(src);
  const std::int64_t wire = fabric::InterNodeCodec::compressedBytes(
      payload, codec_->aggregateBits(node, at));
  codec_->recordFlow(payload, wire);
  codec_->recordEgress(node, at, wire);
  return wire;
}

FaultInjector::PutResult Transport::send(
    Traffic traffic, int src, int dst, std::int64_t bytes,
    std::int64_t n_messages, SimTime at, double bandwidth_fraction) const {
  if (injector_ == nullptr) {
    const auto d =
        fabric_->transfer(src, dst, bytes, n_messages, at, bandwidth_fraction);
    return {d.delivered, d.delivered, 1};
  }
  if (traffic == Traffic::kCollective) {
    return injector_->reliableCollective(src, dst, bytes, n_messages, at,
                                         bandwidth_fraction);
  }
  return injector_->reliablePut(src, dst, bytes, n_messages, at);
}

int Transport::leaderAt(int node, SimTime at) const {
  return injector_ != nullptr ? injector_->leaderAt(node, at)
                              : fabric_->topology().nodeLeader(node);
}

bool Transport::pairDegraded(int src_node, int dst_node, SimTime at) const {
  return injector_ != nullptr &&
         injector_->pairDegraded(src_node, dst_node, at);
}

void Transport::recordFallback(SimTime at, SimTime until) const {
  if (injector_ != nullptr) injector_->recordHierFallback(at, until);
}

bool Transport::coalescable() const {
  return injector_ == nullptr && codec_ == nullptr && !hierarchical_ &&
         fabric_->coalescingSafe();
}

}  // namespace pgasemb::fault
