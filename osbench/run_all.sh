#!/usr/bin/env bash
# Runs every workload untraced (end-to-end metrics), then traced
# (per-layer metrics), on one seed. Exits 1 if any run's checks fail.
#
# usage: osbench/run_all.sh [seed] [seconds]
set -uo pipefail
seed=${1:-1}
seconds=${2:-20}
cd "$(dirname "$0")/.." || exit 2
status=0
for trace in 0 1; do
    for workload in sim_versioned sim_baseline store_zipf_rw; do
        cargo run --release --offline --quiet --manifest-path osbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
