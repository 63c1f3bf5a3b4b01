// Roofline-style cost model for simulated GPU kernels and host overheads.
//
// The defaults are calibrated to the paper's testbed: an NVIDIA DGX with
// four V100-SXM2-32GB GPUs fully connected by NVLink.  Every constant can
// be overridden, and the scaling *shapes* the benchmarks reproduce depend
// on the relative magnitudes (compute vs. link bandwidth vs. per-call
// overheads), not on the absolute values.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace pgasemb::gpu {

struct CostModel {
  // --- Device compute/memory ---------------------------------------------
  /// Peak fp32 throughput (V100: 15.7 TFLOP/s).
  double peak_flops = 15.7e12;
  /// Peak HBM2 bandwidth in bytes/s (V100: 900 GB/s).
  double hbm_bandwidth = 900e9;
  /// Achievable fraction of peak HBM bandwidth for gather-heavy kernels
  /// (embedding lookups are random-access row gathers).  Calibrated to
  /// the paper's ncu observation of 57% memory throughput (§IV-B2a).
  double gather_efficiency = 0.57;
  /// Below this many gathered rows per kernel the gather cannot keep
  /// enough loads in flight to hide HBM latency, and achieved bandwidth
  /// falls off linearly (Little's law).  This is what flattens the
  /// strong-scaling computation time beyond 2 GPUs (paper §IV-B2a: the
  /// kernel is latency-limited, 38% compute / 57% memory throughput).
  double gather_saturation_rows = 16e6;
  /// Upper bound on the latency-limited penalty: a sub-saturation kernel
  /// never takes longer than full-bandwidth time plus this much per
  /// gathered row (amortized issue cost of one outstanding load).
  SimTime gather_row_issue_latency = SimTime::ps(1200);
  /// Achievable fraction of peak HBM bandwidth for streaming kernels
  /// (memsets, contiguous copies).
  double stream_efficiency = 0.82;
  /// Achieved fraction of peak HBM bandwidth for the baseline's
  /// unpack/data-rearrangement step.  The PyTorch baseline realizes the
  /// layout conversion as a permuted, strided scatter plus per-table
  /// tensor splits — far below streaming bandwidth.  Calibrated so the
  /// baseline's Sync+Unpack component matches the paper's Fig 6 ratios.
  double unpack_efficiency = 0.033;
  /// Achieved fraction of a link's raw bandwidth for NCCL collective
  /// transfers (protocol handshakes, staging copies, channel setup on
  /// the V100/NCCL-2.x path).  Calibrated so the baseline communication
  /// phase matches Fig 6 ("the communication phase takes roughly the
  /// same time as the computation phase").  PGAS direct stores use the
  /// raw link bandwidth (minus per-message headers) instead.
  double collective_protocol_efficiency = 0.175;
  /// ncu-style reporting only: scalar instructions executed per gathered
  /// element (index math, address computation, predication) — calibrated
  /// to the paper's reported 38% compute throughput.
  double compute_instructions_per_element = 53.0;
  /// Fixed per-kernel latency floor: wave quantization, tail effects and
  /// instruction issue latency. Keeps tiny kernels latency-limited, which
  /// drives the paper's strong-scaling stall beyond 2 GPUs (§IV-B).
  SimTime kernel_latency_floor = SimTime::us(6.0);

  // --- Host-side overheads -------------------------------------------------
  /// CPU cost of one cudaLaunchKernel call (driver + runtime).
  SimTime kernel_launch_overhead = SimTime::us(7.0);
  /// CPU cost of a stream/device synchronize returning after idle.
  SimTime stream_sync_overhead = SimTime::us(10.0);
  /// CPU cost of triggering one NCCL collective (enqueue + proxy wakeup).
  /// The paper calls this the "communication control path" overhead.
  SimTime collective_trigger_overhead = SimTime::us(28.0);
  /// Per-chunk bookkeeping inside the collective (proxy progression).
  SimTime collective_chunk_overhead = SimTime::us(1.5);

  /// Bytes moved per raw index by the replica-cache probe/partition
  /// pass: one 8-byte index read plus the amortized compacted
  /// miss-list write (~4 B).  The probe is a streaming classification
  /// pass, far cheaper than the 260+ B/row gather it shrinks.
  double cache_probe_bytes_per_index = 12.0;

  // --- Derived helpers ------------------------------------------------------
  /// Time for a kernel moving `bytes` with random-access (gather)
  /// traffic over `gathered_rows` independent row reads, executing
  /// `flops` fp32 operations.  Below gather_saturation_rows the
  /// achieved bandwidth degrades linearly (latency-limited gathers).
  /// `prologue` is in-kernel work that runs before the gather in the
  /// same launch (the replica-cache probe): it adds to the body, and
  /// one latency floor covers both.
  SimTime gatherKernelTime(double flops, double bytes, double gathered_rows,
                           SimTime prologue = SimTime::zero()) const;

  /// Time for a streaming (memset/contiguous copy) kernel moving `bytes`.
  SimTime streamKernelTime(double bytes) const;

  /// Time for the baseline's strided unpack/rearrangement over `bytes`.
  SimTime unpackKernelTime(double bytes) const;

  /// Streaming body (no latency floor) of the replica-cache probe that
  /// classifies `indices` raw indices into replica hits and exchange
  /// misses. It runs as the lookup kernel's prologue.
  SimTime cacheProbeBody(double indices) const;

  /// Compute and memory "throughput" fractions the simulator reports for
  /// a kernel, mirroring what ncu would show (paper §IV-B2a).
  struct Throughput {
    double compute;  ///< fraction of peak_flops actually sustained
    double memory;   ///< fraction of hbm_bandwidth actually sustained
  };
  Throughput kernelThroughput(double flops, double bytes,
                              SimTime duration) const;
};

}  // namespace pgasemb::gpu
