// PGAS symmetric heap over the simulated devices.
//
// A symmetric allocation reserves the same number of elements on every
// GPU (like nvshmem_malloc), so a (pe, offset) pair names one location in
// the partitioned global address space and remote writes can target the
// final destination directly — the property that lets the paper's fused
// kernel skip the unpack step.
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/device.hpp"

namespace pgasemb::gpu {
class MultiGpuSystem;
}

namespace pgasemb::pgas {

/// One buffer per GPU, all the same size.
class SymmetricBuffer {
 public:
  SymmetricBuffer() = default;

  bool valid() const { return !parts_.empty(); }
  int numPes() const { return static_cast<int>(parts_.size()); }
  // pgaslint:allow(unused-decl) symmetric-allocation tests
  std::int64_t sizePerPe() const { return size_per_pe_; }

  gpu::DeviceBuffer& on(int pe);
  const gpu::DeviceBuffer& on(int pe) const;

  /// Functional-mode view of pe's partition.
  std::span<float> span(int pe) { return on(pe).span(); }

 private:
  friend class SymmetricHeap;
  std::vector<gpu::DeviceBuffer> parts_;
  std::int64_t size_per_pe_ = 0;
};

class SymmetricHeap {
 public:
  explicit SymmetricHeap(gpu::MultiGpuSystem& system) : system_(system) {}

  /// Allocate `elements_per_pe` fp32 on every device.
  SymmetricBuffer alloc(std::int64_t elements_per_pe);

  /// Free all partitions.
  void free(SymmetricBuffer& buffer);

 private:
  gpu::MultiGpuSystem& system_;
};

}  // namespace pgasemb::pgas
