#include "gpu/cost_model.hpp"

#include <algorithm>

namespace pgasemb::gpu {

SimTime CostModel::gatherKernelTime(double flops, double bytes,
                                    double gathered_rows,
                                    SimTime prologue) const {
  const double compute_s = flops / peak_flops;
  const double full_bw_s = bytes / (hbm_bandwidth * gather_efficiency);
  // Latency-limited regime: too few independent row gathers in flight to
  // saturate HBM, so achieved bandwidth scales with the working set —
  // but never worse than issuing the rows serially at the per-row issue
  // cost (which keeps truly tiny kernels at the latency floor).
  double memory_s = full_bw_s;
  if (gather_saturation_rows > 0.0 && gathered_rows > 0.0 &&
      gathered_rows < gather_saturation_rows) {
    const double degraded_s =
        full_bw_s * gather_saturation_rows / gathered_rows;
    const double issue_bound_s =
        full_bw_s + gathered_rows * gather_row_issue_latency.toSec();
    memory_s = std::min(degraded_s, issue_bound_s);
  }
  const SimTime body =
      SimTime::sec(std::max(compute_s, memory_s)) + prologue;
  return std::max(body, kernel_latency_floor);
}

SimTime CostModel::streamKernelTime(double bytes) const {
  const double memory_s = bytes / (hbm_bandwidth * stream_efficiency);
  return std::max(SimTime::sec(memory_s), kernel_latency_floor);
}

SimTime CostModel::unpackKernelTime(double bytes) const {
  const double memory_s = bytes / (hbm_bandwidth * unpack_efficiency);
  return std::max(SimTime::sec(memory_s), kernel_latency_floor);
}

SimTime CostModel::cacheProbeBody(double indices) const {
  return SimTime::sec(indices * cache_probe_bytes_per_index /
                      (hbm_bandwidth * stream_efficiency));
}

CostModel::Throughput CostModel::kernelThroughput(double flops, double bytes,
                                                  SimTime duration) const {
  Throughput t{0.0, 0.0};
  const double s = duration.toSec();
  if (s <= 0.0) return t;
  t.compute = std::min(1.0, flops / s / peak_flops);
  t.memory = std::min(1.0, bytes / s / hbm_bandwidth);
  return t;
}

}  // namespace pgasemb::gpu
