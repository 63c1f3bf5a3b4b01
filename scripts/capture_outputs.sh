#!/usr/bin/env bash
# Captures every observable output of a fixed list of pgasemb_bench runs,
# so a refactor can be checked for byte-identical behaviour:
#
#   scripts/capture_outputs.sh <old>/bench/pgasemb_bench /tmp/cap_old
#   scripts/capture_outputs.sh <new>/bench/pgasemb_bench /tmp/cap_new
#   diff -r /tmp/cap_old /tmp/cap_new        # empty = identical
#
# Each case runs in its own empty directory. <outdir>/<NN>_<experiment>/
# then holds the command line (cmd), stdout, stderr, the exit status
# (status) and every file the run wrote. Only host wall-clock figures
# are masked with '#': simcore's events/sec, wall ms/batch and wall-time
# ratio, and the sim_wall_ms_per_batch / events_per_sec fields of the
# --bench-json records. <outdir> must not exist yet.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <pgasemb_bench> <outdir>" >&2
  exit 2
fi
bench=$(realpath "$1")
out=$2
if [[ ! -x $bench ]]; then
  echo "$0: $1 is not an executable" >&2
  exit 2
fi
if [[ -e $out ]]; then
  echo "$0: $out already exists" >&2
  exit 2
fi
mkdir -p "$out"
out=$(realpath "$out")

cases=(
  # Every experiment at its default arguments.
  "weak_scaling"
  "strong_scaling"
  "weak_breakdown"
  "strong_breakdown"
  "comm_volume"
  "ablation_pooling"
  "ablation_header"
  "aggregator"
  "backward"
  "sharding"
  "ablation_batch"
  "ablation_overlap"
  "input_partition"
  "skew"
  "pipelined"
  "training"
  "multinode"
  "cache"
  "faults"
  "serving"
  "simcore"
  # Multi-node: hierarchy, codec, shared NIC queue, the sweep grid.
  "multinode --batches 3 --hierarchical-a2a"
  "multinode --batches 3 --compress-bound 0.01"
  "multinode --batches 3 --hierarchical-a2a --compress-bound 0.01 --compress-adaptive"
  "multinode --batches 3 --hierarchical-a2a --nic-shared-queue"
  "multinode --batches 2 --gpus-per-node 2 --nic-shared-queue --compress-bound 0.01"
  "multinode --sweep --batches 2 --sweep-nodes 1,2,4 --csv=sweep.csv --bench-json=mn.json"
  "multinode --sweep --batches 2 --gpus-per-node 2 --sweep-nodes 2,4 --bound 0.1 --nic-shared-queue --csv=sweep.csv"
  # Node-scoped fault plans (nic/leader/node faults on the hierarchy).
  "faults --nodes 2 --gpus 4 --batches 5 --bench-json=fn.json"
  "faults --nodes 2 --gpus 8 --batches 3 --retrievers nccl_collective,pgas_fused,nccl_pipelined --simsan --csv=fn.csv"
  "faults --nodes 4 --gpus 8 --batches 3 --no-coalesce --fault-seed 3"
  "faults --nodes 4 --gpus 16 --batches 10 --csv="
  # Single-node faults, simsan, strict effects and --no-coalesce.
  "faults --simsan --batches 3 --gpus 2 --no-coalesce --bench-json=f.json --fault-seed 11"
  "weak_scaling --batches 3 --bench-json=wk.json --csv=wk.csv --cache-rows 1000 --zipf-alpha 0.9"
  "strong_scaling --batches 3 --faults link-degrade:0-1:0.5 --fault-seed 3 --slo-ms 0.5 --simsan"
  "weak_scaling --batches 2 --max-gpus 3 --simsan-strict --no-coalesce --retrievers pgas_fused,nccl_collective"
  "weak_breakdown --batches 2 --cache-rows 500 --zipf-alpha 1.0 --csv=wb.csv"
  "serving --queries 300 --qps-list 64000,256000 --admit-queue 32 --shed-policy shed-oldest --query-deadline-ms 2 --admit-window 25 --slo-ms 1 --csv=s.csv"
  "serving --queries 200 --qps-list 16000 --arrivals bursty --faults link-degrade:0-1:0.5 --fault-horizon-ms 5 --slo-ms 0.5 --simsan --no-coalesce --csv="
  "backward --no-coalesce --batches 2"
  "training --no-coalesce --batches 2"
  "comm_volume --cache-rows 1000 --zipf-alpha 1.0 --no-coalesce --csv-fig7=f7.csv --csv-fig10="
  "cache --batches 2 --no-coalesce --csv=c.csv --retrievers pgas_fused"
  "pipelined --simsan --batches 2 --depth 3"
  "ablation_batch --batches 2 --retrievers pgas_fused,nccl_collective"
  "skew --batches 2 --retrievers nccl_pipelined,pgas_fused"
  "aggregator --batches 2 --nic-gbps 10 --nic-msg-rate 5e6"
)

i=0
for args in "${cases[@]}"; do
  i=$((i + 1))
  read -r -a argv <<< "$args"
  dir=$(printf '%s/%02d_%s' "$out" "$i" "${argv[0]}")
  mkdir "$dir"
  printf '%s\n' "$args" > "$dir/cmd"
  status=0
  (cd "$dir" && "$bench" "${argv[@]}" > stdout 2> stderr) || status=$?
  printf '%s\n' "$status" > "$dir/status"
  for file in "$dir"/*; do
    sed -E -i \
        -e 's# *[0-9.]+ events/sec# \# events/sec#g' \
        -e 's# *[0-9.]+ wall ms/batch# \# wall ms/batch#g' \
        -e 's#[0-9.]+x less wall time#\#x less wall time#g' \
        -e '/"(sim_wall_ms_per_batch|events_per_sec)"/ s#: [-0-9.e+]+#: \##g' \
        "$file"
  done
done
echo "captured ${#cases[@]} cases into $out"
