#include "workload.hpp"

#include <cstdio>

#include "emb/workload.hpp"

namespace perfbench {

using namespace pgasemb;

void fingerprintAdd(std::string& fp, double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g;", v);
  fp += buf;
}

void PassClock::add(PassOutput& out, std::int64_t batches,
                    std::uint64_t events) const {
  out.setup_s += t1_ - t0_;
  out.loop_s += nowSec() - t1_;
  out.batches += batches;
  out.events += events;
  out.minor_faults += hostCounters().minor_faults - faults0_;
}

dlrm::DlrmConfig dlrmModel(int dim) {
  dlrm::DlrmConfig m;
  m.dense_dim = 13;
  m.top_mlp = {512, 256, dim};
  m.bottom_mlp = {512, 256, 1};
  return m;
}

engine::ExperimentConfig multinodeConfig(int nodes, int gpus_per_node) {
  engine::ExperimentConfig cfg;
  cfg.num_gpus = nodes * gpus_per_node;
  cfg.layer = emb::multinodeServingLayerSpec(cfg.num_gpus);
  cfg.num_nodes = nodes;
  // IB-like NIC: 25 GB/s, 5 us, 64 B headers, 10 M msg/s.
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
  cfg.hierarchical_a2a = true;
  return cfg;
}

engine::ExperimentConfig serveConfig(std::int64_t max_batch) {
  engine::ExperimentConfig cfg;
  cfg.num_gpus = 4;
  cfg.layer = emb::servingLayerSpec(cfg.num_gpus, max_batch);
  // Single-id features over a raw domain equal to the row count, so
  // Zipf rank r is row r-1 and a C-row replica holds the top-C mass.
  cfg.layer.min_pooling = 1;
  cfg.layer.max_pooling = 1;
  cfg.layer.zipf_alpha = 1.0;
  cfg.layer.index_space =
      static_cast<std::uint64_t>(cfg.layer.rows_per_table);
  cfg.cache_rows = cfg.layer.rows_per_table / 100;  // 1% hot-row replica
  cfg.serving.query_size = emb::parseQuerySizeSpec("zipf:1.1:1-64");
  cfg.serving.max_batch_size = max_batch;
  cfg.serving.max_wait_ms = 0.2;
  cfg.serving.slo_ms = 1.0;
  return cfg;
}

void closedLoopEndToEnd(Report& rep, bool trace, const std::string& s,
                        const std::vector<double>& op_ms,
                        const std::vector<double>& op_samples,
                        const std::string& what) {
  if (trace) return;
  const auto n = static_cast<std::int64_t>(op_ms.size());
  double total_ms = 0.0;
  double samples = 0.0;
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    total_ms += op_ms[i];
    samples += op_samples[i];
  }
  const int tail = tailPercentile(op_ms.size());
  const double rate = samples / (total_ms / 1000.0);
  rep.endToEnd("sim_batch_ms." + s, total_ms / static_cast<double>(n), "ms",
               n, "mean per " + what);
  rep.endToEnd("p50_ms." + s, percentile(op_ms, 50.0), "ms", n,
               "per " + what);
  char tail_note[96];
  snprintf(tail_note, sizeof(tail_note), "p%d per %s", tail, what.c_str());
  rep.endToEnd("tail_ms." + s, percentile(op_ms, tail), "ms", n, tail_note);
  rep.endToEnd("max_qps." + s, rate, "1/s", n,
               "closed loop: samples per simulated second");
  rep.endToEnd("goodput_qps." + s, rate, "1/s", n,
               "closed loop, no latency limit: every sample counts");
}

}  // namespace perfbench
