#!/usr/bin/env bash
# Regenerate the behaviour contract's checked-in copies in tests/golden/
# from a Release build in build/ (the tree ci/run.sh uses):
#
#   tests/golden/regen.sh
#
# Each file is the output that a ci/run.sh suite writes and compares with
# its copy here: the --jobs=1 stdout of the five sweep benches and
# parallel_cluster --duration-s=3 (sweep-determinism), nic_failover
# (failover-smoke), and chaos_recovery seeds 11 and 42 (chaos-smoke).
# Commit a regeneration together with its reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/../.."
sweeps="fig14_15_latency_tput fig16_scheduler ablation_scheduler nf_firewall_ipsec multi_tenant"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
# shellcheck disable=SC2086
cmake --build build -j"$(nproc)" --target $sweeps parallel_cluster \
  nic_failover chaos_recovery
g=tests/golden
for b in $sweeps; do
  ./build/bench/$b --jobs=1 > "$g/$b.jobs1.txt"
done
./build/bench/parallel_cluster --sim-threads=1 --duration-s=3 > "$g/par.st1.txt"
./build/bench/nic_failover --sim-threads=1 > "$g/failover.t1.txt"
for seed in 11 42; do
  ./build/bench/chaos_recovery --seed=$seed --duration-s=200 > "$g/chaos.$seed.a.txt"
done
