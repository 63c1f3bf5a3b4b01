// pgasemb_bench: one driver for every paper table/figure, ablation and
// extension experiment (DESIGN.md has the per-experiment index).
//
//   pgasemb_bench <experiment> [flags]     run one experiment
//   pgasemb_bench <experiment> --help      its flags and defaults
//   pgasemb_bench --help                   the experiment list
//
// An unsupported flag, a malformed value or a config the library
// rejects exits 2 with a pointed message; no CLI input aborts.
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"

namespace {

namespace b = pgasemb::bench;

struct Experiment {
  const char* name;
  const char* description;  ///< also the experiment's --help header
  /// Registers the experiment's flags on `cli`, parses argv (argv[0] is
  /// the experiment name), runs, and returns the exit status.
  int (*run)(pgasemb::CliParser& cli, int argc, char** argv);
};

constexpr Experiment kExperiments[] = {
    {"weak_scaling",
     "Weak-scaling benchmark (paper Table 1 + Figure 5): PGAS fused vs "
     "NCCL-collective EMB retrieval.",
     b::scalingSweep</*weak=*/true, /*breakdown=*/false>},
    {"strong_scaling",
     "Strong-scaling benchmark (paper Table 2 + Figure 8): PGAS fused vs "
     "NCCL-collective EMB retrieval.",
     b::scalingSweep</*weak=*/false, /*breakdown=*/false>},
    {"weak_breakdown", "Weak-scaling runtime breakdown (paper Figure 6).",
     b::scalingSweep</*weak=*/true, /*breakdown=*/true>},
    {"strong_breakdown", "Strong-scaling runtime breakdown (paper Figure 9).",
     b::scalingSweep</*weak=*/false, /*breakdown=*/true>},
    {"comm_volume", "Communication volume over time (paper Figures 7 and 10).",
     b::commVolume},
    {"ablation_pooling", "Pooling-factor ablation A1 (4 GPUs, weak config).",
     b::ablationPooling},
    {"ablation_header",
     "Message-header overhead ablation A2 (4 GPUs, weak config).",
     b::ablationHeader},
    {"aggregator",
     "Async aggregator sweep A3 on a 2-node x 2-GPU system (paper SV / "
     "SC'22 [7] extension).",
     b::aggregator},
    {"backward",
     "EMB backward pass A4: PGAS remote atomics vs collective rounds (paper "
     "SV future work).",
     b::backward},
    {"sharding", "Sharding-scheme ablation A5 under PGAS fused retrieval.",
     b::sharding},
    {"ablation_batch", "Batch-size ablation A6 (4 GPUs, weak-style config).",
     b::ablationBatch},
    {"ablation_overlap",
     "Overlap-granularity ablation A7: kernel message slices x interconnect "
     "topology (4 GPUs, weak config).",
     b::ablationOverlap},
    {"input_partition",
     "Input-partitioning cost A8: table-wise vs row-wise vs fused-into-kernel "
     "(paper SV).",
     b::inputPartition},
    {"skew",
     "Skewed-pooling ablation A9: naive vs balanced table-wise sharding (4 "
     "GPUs).",
     b::skew},
    {"pipelined",
     "Inter-batch pipelined baseline vs PGAS fused, ablation A10 (weak "
     "config).",
     b::pipelined},
    {"training",
     "Full DLRM training step: collective vs PGAS on both the forward and "
     "backward EMB paths (4 GPUs, weak config).",
     b::training},
    {"multinode",
     "Multi-node weak scaling: baseline vs PGAS vs PGAS+aggregator (paper SV "
     "extension); --sweep runs the hierarchical-routing x compression grid.",
     b::multinode},
    {"cache",
     "Replica-cache sweep: Zipf skew x cache capacity x retriever (hit rate, "
     "saved exchange bytes, speedup vs no cache).",
     b::cache},
    {"faults",
     "Fault-severity x retriever sweep: per-batch slowdown and resilience "
     "counters under injected faults.",
     b::faults},
    {"serving",
     "Open-loop serving benchmark: query load generator -> dynamic batcher "
     "-> retriever, sweeping offered QPS x arrival pattern and reporting "
     "per-query tail latency and the max sustainable load.",
     b::serving},
    {"simcore",
     "Simulator-core throughput: EventQueue push/pop, scheduleBatch, and the "
     "coalesced vs per-message PGAS flow path (host wall-clock only; "
     "simulated results are unaffected).",
     b::simcore},
};

void printExperiments(FILE* out) {
  fprintf(out,
          "usage: pgasemb_bench <experiment> [flags]  "
          "(pgasemb_bench <experiment> --help lists its flags)\n\n"
          "experiments:\n");
  for (const auto& e : kExperiments) {
    fprintf(out, "  %-17s %s\n", e.name, e.description);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    printExperiments(stderr);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    printExperiments(stdout);
    return 0;
  }
  for (const auto& e : kExperiments) {
    if (std::strcmp(argv[1], e.name) != 0) continue;
    try {
      pgasemb::CliParser cli(e.description);
      return e.run(cli, argc - 1, argv + 1);
    } catch (const pgasemb::InvalidArgumentError& err) {
      fprintf(stderr, "pgasemb_bench %s: %s\n(run with --help for usage)\n",
              e.name, err.what());
      return 2;
    }
  }
  fprintf(stderr, "pgasemb_bench: unknown experiment '%s'\n\n", argv[1]);
  printExperiments(stderr);
  return 2;
}
