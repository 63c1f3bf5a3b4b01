// Transport: the one owner of how a byte leaves a node.
//
// PGAS one-sided puts and the NCCL-style collectives must cross the node
// boundary on the same wire model for the paper's comparison to be fair
// (in NVSHMEM, device puts and collectives likewise share one transport
// layer). SystemBuilder builds one Transport per assembly and hands it to
// both PgasRuntime and Communicator. It is a view over the fabric, the
// optional FaultInjector, the optional InterNodeCodec and the hierarchy
// flag, owns none of them, and answers five questions:
//
//   encode       the wire bytes of a payload (the codec step)
//   send         direct transfer, or delivery-tracked retry under faults
//   leaderAt     the elected staging leader of a node
//   pairDegraded whether a node pair's collective traffic runs flat,
//                and recordFallback
//   coalescable  whether the path is plain enough to coalesce slices
//
// A Transport built from a bare fabric is the plain path — no faults, no
// codec, flat routing — bit-identical to a fabric::Fabric::transfer call.
#pragma once

#include <cstdint>

#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"

namespace pgasemb::fault {

class Transport {
 public:
  /// Which ResilienceStats counter a re-injection bumps: retransmits for
  /// one-sided puts, collective_reissues for collective chunks.
  enum class Traffic { kPut, kCollective };

  /// Implicit from a fabric: the plain transport. `hierarchical` only
  /// takes effect on a multi-node topology. None of the pointees is
  /// owned; all must outlive the transport and its copies.
  Transport(fabric::Fabric& fabric,
            FaultInjector* injector = nullptr,
            fabric::InterNodeCodec* codec = nullptr,
            bool hierarchical = false);

  fabric::Fabric& fabric() const { return *fabric_; }
  FaultInjector* injector() const { return injector_; }
  fabric::InterNodeCodec* codec() const { return codec_; }

  /// Inter-node traffic is forwarded through the node leaders.
  bool hierarchical() const { return hierarchical_; }

  /// Wire bytes of `payload` bytes sent src -> dst at `at`. With a codec,
  /// an fp32 payload (non-empty, a multiple of 4 bytes) on an inter-node
  /// route ships compressed at its source node's aggregate width, and is
  /// recorded as one codec flow and as that node's NIC egress. Anything
  /// else (control messages, intra-node routes, no codec) passes through.
  std::int64_t encode(int src, int dst, std::int64_t payload,
                      SimTime at) const;

  /// Puts `bytes` on the wire. Fault-free: one Fabric::transfer. Under an
  /// armed injector: a delivery-tracked transfer that re-injects dropped
  /// attempts until one lands. The result keeps the acknowledged
  /// delivery and, for a recovered transfer, the loss time of its first
  /// dropped attempt.
  FaultInjector::PutResult send(
      Traffic traffic, int src, int dst, std::int64_t bytes,
      std::int64_t n_messages, SimTime at,
      double bandwidth_fraction = 1.0) const;

  /// Elected staging leader of `node` at `at`: the injector's election
  /// (leader-fail failover, counted once per window) when armed, the
  /// topology default otherwise.
  int leaderAt(int node, SimTime at) const;

  /// True while a NIC fault window puts the node pair's collective
  /// traffic in per-pair degraded (flat) mode; never without an injector.
  bool pairDegraded(int src_node, int dst_node, SimTime at) const;

  /// Counts one per-node-pair flat fallback whose direct traffic spanned
  /// [at, until].
  void recordFallback(SimTime at, SimTime until) const;

  /// True when nothing between a flow and the fabric observes per-message
  /// order or reshapes the flow: no injector, no codec, no hierarchy, and
  /// a fabric that is itself coalescing-safe.
  bool coalescable() const;

 private:
  fabric::Fabric* fabric_;
  FaultInjector* injector_;
  fabric::InterNodeCodec* codec_;
  bool hierarchical_;
};

}  // namespace pgasemb::fault
