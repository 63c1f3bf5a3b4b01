// Fabric: the transfer facade over a Topology.
//
// A "flow" is a batch of same-destination messages injected at one
// simulated instant — a collective chunk (one big message) or a slice of
// warp-coalesced PGAS stores (many 256-byte messages).  The fabric
// serializes flows hop by hop through the route's FIFO links, counts
// payload bytes and messages, and reports the delivery time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/time_series_counter.hpp"
#include "fabric/topology.hpp"
#include "util/time.hpp"

namespace pgasemb::fabric {

class Fabric {
 public:
  explicit Fabric(std::unique_ptr<Topology> topology);

  int numGpus() const { return topology_->numGpus(); }
  Topology& topology() { return *topology_; }

  struct Delivery {
    SimTime injected;
    SimTime delivered;
    /// True when a link-flap fault window swallowed the flow; then
    /// `delivered` is the time the flow was lost (sender-side wire end
    /// of the dropping hop) — the resilience layer
    /// (fault::FaultInjector) is responsible for retransmission.  Always
    /// false without armed link faults.
    bool dropped = false;
  };

  /// Inject a flow of `n_messages` messages totalling `payload_bytes`
  /// from GPU `src` to GPU `dst` at time `at`.  Returns the (eagerly
  /// computable) delivery time.
  /// `bandwidth_fraction` scales achieved link bandwidth for this flow
  /// (collective protocol efficiency vs. raw one-sided stores).
  Delivery transfer(int src, int dst, std::int64_t payload_bytes,
                    std::int64_t n_messages, SimTime at,
                    double bandwidth_fraction = 1.0);

  /// Sink for the bytes delivered over time (payload only, every flow
  /// that is not dropped): the paper's comm counter (Figs 7/10). Not
  /// owned; nullptr (the default) records no series, so a run nobody
  /// plots keeps no memory per simulated microsecond. The engine's
  /// BatchExecutor attaches one for its run.
  void setDeliverySeries(TimeSeriesCounter* series) {
    delivery_series_ = series;
  }

  std::int64_t totalPayloadBytes() const { return total_payload_bytes_; }
  std::int64_t totalMessages() const { return total_messages_; }

  /// Per-link-class traffic rollup (intra-node NVLink vs inter-node NIC),
  /// summed over the topology's links.  `wire_equivalent_bytes` converts
  /// wire occupancy back to bytes at nominal bandwidth, so it captures
  /// headers, message-rate padding and protocol-efficiency loss — the
  /// honest "what did this traffic cost the wire" number.
  struct ClassTraffic {
    std::int64_t payload_bytes = 0;
    std::int64_t messages = 0;
    double wire_equivalent_bytes = 0.0;
  };
  ClassTraffic classTraffic(LinkClass cls);

  /// Observer invoked once per non-local flow with
  /// (src, dst, payload bytes, message count, wire start, delivered).
  using FlowObserver = std::function<void(int src, int dst,
                                          std::int64_t payload_bytes,
                                          std::int64_t n_messages,
                                          SimTime wire_start,
                                          SimTime delivered)>;
  void setFlowObserver(FlowObserver observer) {
    flow_observer_ = std::move(observer);
  }

  /// True when reordering one source's flow injections relative to other
  /// simulator events cannot change any observable result: dedicated
  /// per-pair links (no cross-source contention), no flow observer (who
  /// would see the reordered callback sequence), and no armed link-fault
  /// windows (drop/degrade decisions sample link state per flow). The
  /// PGAS runtime combines this with its own conditions to decide
  /// per-kernel slice coalescing.
  bool coalescingSafe() const;

  /// Clear the totals and link occupancy (new experiment, same
  /// topology). An attached delivery series is its owner's to clear.
  void reset();

 private:
  std::unique_ptr<Topology> topology_;
  TimeSeriesCounter* delivery_series_ = nullptr;
  std::int64_t total_payload_bytes_ = 0;
  std::int64_t total_messages_ = 0;
  FlowObserver flow_observer_;
  /// The current flow's hops, reused so transfer() allocates nothing per
  /// flow (nothing re-enters transfer() while the hop loop runs).
  std::vector<Link*> route_;
};

}  // namespace pgasemb::fabric
