#!/usr/bin/env bash
# Every CI check, grouped into suites.  CI runs one suite per matrix job
# (.github/workflows/ci.yml); anyone can run one locally the same way:
#
#   ci/run.sh <suite>
#
# Needs cmake, g++, GoogleTest, Google Benchmark, jq and python3.  Works in
# the repository root and builds into build/ (Release), build-asan/ (Debug,
# ASan+UBSan) and build-tsan/ (RelWithDebInfo, TSan).  Bench outputs land
# in the root, where CI uploads the reports and traces.  An unknown suite
# prints the list of suites and exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."

# configure <build|build-asan|build-tsan>: the three build trees.
configure() {
  case $1 in
    build) cmake -B build -S . -DCMAKE_BUILD_TYPE=Release ;;
    build-asan)
      cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" ;;
    build-tsan)
      cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" ;;
  esac
}

# compile <tree> [target...]: configure the tree, then build the targets
# (every target when none is named).
compile() {
  local tree=$1
  shift
  configure "$tree"
  if (($#)); then set -- --target "$@"; fi
  cmake --build "$tree" -j"$(nproc)" "$@"
}

# run_tests <tree> [ctest filter...]
run_tests() {
  local tree=$1
  shift
  ctest --test-dir "$tree" --output-on-failure -j"$(nproc)" "$@"
}

# same <a> <b> <error> [<ok>]: the byte-equality gate.  Fails the suite,
# showing the first 40 lines of the diff, unless files a and b are equal.
same() {
  if ! cmp -s "$1" "$2"; then
    echo "::error::$3"
    diff "$1" "$2" | head -40 || true
    exit 1
  fi
  if [ -n "${4:-}" ]; then echo "$4"; fi
}

# speedup_floor: parallel_cluster at 8 engine threads must run at least 3x
# faster than at 1 (wall1.json / wall8.json from --wall-out).
speedup_floor() {
  python3 - <<'EOF'
import json, sys
w1 = json.load(open("wall1.json"))
w8 = json.load(open("wall8.json"))
speedup = w1["wall_seconds"] / max(w8["wall_seconds"], 1e-9)
print(f"events={w1['events']} wall(t1)={w1['wall_seconds']:.2f}s "
      f"wall(t8)={w8['wall_seconds']:.2f}s speedup={speedup:.2f}x")
if speedup < 3.0:
    print(f"::error::parallel speedup {speedup:.2f}x below the 3x floor")
    sys.exit(1)
EOF
}

# perf_floors: every benchmark gated in BENCH_sim.json must reach its
# floor in bench_result.json (micro_simulator's JSON output).
perf_floors() {
  python3 - <<'EOF'
import json, sys
baseline = json.load(open("BENCH_sim.json"))["benchmarks"]
measured = {b["name"]: b.get("items_per_second", 0.0)
            for b in json.load(open("bench_result.json"))["benchmarks"]}
failed = False
for name, spec in baseline.items():
    floor = spec["floor_items_per_second"]
    got = measured.get(name)
    if got is None:
        print(f"::error::{name} missing from benchmark output")
        failed = True
    elif got < floor:
        print(f"::error::{name}: {got:.0f} items/s below floor {floor}")
        failed = True
    else:
        print(f"{name}: {got:.0f} items/s (floor {floor})")
sys.exit(1 if failed else 0)
EOF
}

case "${1:-}" in
  # Tier-1: the full build + test suite that every change must keep green.
  build-and-test)
    # The build tree must never be committed; fail fast if any build/
    # path sneaks back into the index.
    tracked="$(git ls-files build)"
    if [ -n "$tracked" ]; then
      echo "::error::tracked files under build/:"
      echo "$tracked"
      exit 1
    fi
    compile build
    run_tests build
    ;;

  # Channel/runtime/DMO/tracer tests under ASan+UBSan: the reliability
  # layer moves retained/parked message buffers across retransmit timers,
  # and the DMO bounds checks guard real heap buffers, so memory errors
  # there are the likeliest regression class.
  sanitizers)
    compile build-asan
    run_tests build-asan \
      -R 'Channel|Runtime|Autoscale|SchedulerStats|Dmo|ObjectTable|RegionAllocator|Trace|Tracer|MetricsRegistry'
    ;;

  # Parallel event engine under TSan: the worker pool, spin barrier,
  # handoff rings, concurrent packet pool and atomic chaos/network counters
  # are the only intentionally-shared state, so the concurrent test
  # surface plus a multi-domain bench point run with the race detector on.
  build-tsan)
    compile build-tsan ipipe_tests micro_simulator parallel_cluster
    run_tests build-tsan -R 'ParallelSim|ParallelCluster|SweepRunner|CrossLayout'
    ./build-tsan/bench/micro_simulator \
      --benchmark_filter='BM_MultiDomainChurn/4' --benchmark_min_time=1
    ./build-tsan/bench/parallel_cluster --sim-threads=4 --duration-s=2 \
      > /dev/null
    ;;

  # Parallel-engine acceptance: a 16-node RKV + echo chaos run of >= 10^7
  # events must print byte-identical stdout (chaos-log, trace and result
  # digests included) for --sim-threads=8 and =1, and reach >= 3x speedup
  # at 8 threads.
  parallel-smoke)
    compile build parallel_cluster
    ./build/bench/parallel_cluster --sim-threads=1 --duration-s=10 \
      --min-events=10000000 --wall-out=wall1.json > par.t1.txt
    ./build/bench/parallel_cluster --sim-threads=8 --duration-s=10 \
      --min-events=10000000 --wall-out=wall8.json > par.t8.txt
    same par.t1.txt par.t8.txt \
      "parallel_cluster stdout differs between --sim-threads=1 and =8" \
      "parallel_cluster: byte-identical under --sim-threads=8"
    grep '^digest' par.t1.txt
    speedup_floor
    ;;

  # A sample Perfetto trace from real bench runs: well-formed JSON holding
  # the scheduler/migration/channel events the tracer promises.  CI
  # uploads fig16_trace.json and fig18_trace.json.
  trace-artifact)
    compile build fig16_scheduler fig18_migration
    ./build/bench/fig16_scheduler --trace-out=fig16_trace.json > /dev/null
    ./build/bench/fig18_migration --trace-out=fig18_trace.json > /dev/null
    jq . fig16_trace.json > /dev/null
    jq . fig18_trace.json > /dev/null
    for ev in demote_to_drr mig_phase3_dmo_transfer chan_backpressure_start; do
      jq -e --arg ev "$ev" '[.traceEvents[] | select(.name == $ev)] | length > 0' \
        fig16_trace.json > /dev/null || { echo "::error::$ev missing from fig16 trace"; exit 1; }
    done
    jq -e '[.traceEvents[] | select(.name == "mig_phase4_resume")] | length > 0' \
      fig18_trace.json > /dev/null
    ;;

  # Simulator perf floor: the microbenchmarks in Release against the
  # floors in BENCH_sim.json.  Floors are deliberately loose (~25-30% of
  # the reference measurement) so only real regressions trip them.  CI
  # uploads bench_result.json.
  perf-smoke)
    compile build micro_simulator
    ./build/bench/micro_simulator --benchmark_min_time=1 \
      --benchmark_format=json > bench_result.json
    perf_floors
    ;;

  # The crash/partition/corruption tests under ASan+UBSan at a reduced
  # horizon, plus same-seed replay: two fixed seeds must each reproduce
  # their chaos event log and recovery digest byte for byte.
  chaos-smoke)
    compile build-asan ipipe_tests ipipe_tests_chaos ipipe_tests_soak chaos_recovery
    # CHAOS_VSECS shortens the e2e soak so the sanitizer build stays
    # within CI budget; the full 5000-vsec horizon runs in tier-1.
    CHAOS_VSECS=600 run_tests build-asan \
      -R 'Chaos|Supervision|RkvFailover|RkvElection|DtChaos'
    for seed in 11 42; do
      ./build-asan/bench/chaos_recovery --seed=$seed --duration-s=200 > "chaos.$seed.a.txt"
      ./build-asan/bench/chaos_recovery --seed=$seed --duration-s=200 > "chaos.$seed.b.txt"
      same "chaos.$seed.a.txt" "chaos.$seed.b.txt" \
        "chaos_recovery seed=$seed replay is not byte-identical" \
        "seed=$seed: byte-identical replay"
    done
    ;;

  # The NIC device-failure model end to end: watchdog/evacuation/degraded
  # mode/re-offload tests under ASan+UBSan (evacuation moves DMO payloads
  # and parked channel buffers across runtimes), then the nic_failover
  # acceptance driver in Release.  It exits 2 on lost acked writes, 3 on
  # a verify failure and 4 over the degraded p99 bound, and must print
  # byte-identical stdout for --sim-threads=8 and =1 and on replay.
  failover-smoke)
    compile build-asan ipipe_tests ipipe_tests_chaos
    run_tests build-asan \
      -R 'NicFailover|MigrationFault|ChannelRetryJitter|NicPool|Supervision|ChaosPlan'
    compile build nic_failover
    ./build/bench/nic_failover --sim-threads=1 > failover.t1.txt
    grep -E '^(digest|acked|probe)' failover.t1.txt
    ./build/bench/nic_failover --sim-threads=8 > failover.t8.txt
    ./build/bench/nic_failover --sim-threads=1 > failover.t1b.txt
    for f in failover.t8.txt failover.t1b.txt; do
      same failover.t1.txt "$f" "nic_failover stdout differs ($f vs t1)"
    done
    echo "nic_failover: byte-identical across engine threads and replay"
    ;;

  # The history checkers (linearizability for RKV, serializability and
  # atomicity for DT) under ASan+UBSan: the corpus of known-interesting
  # seeds, a small random-seed sweep with chaos on (sanitizer builds are
  # ~10x slower than Release), and the two mutation self-tests, whose
  # seeded stale-read / lost-abort bugs must fail their checker.  The
  # minimized fault plans of a genuine failure land in verify-failures/,
  # which CI uploads.
  verify-smoke)
    compile build-asan ipipe_tests_verify verify_fuzz
    run_tests build-asan -L verify
    ./build-asan/bench/verify_fuzz --replay-corpus=tests/corpus
    ./build-asan/bench/verify_fuzz --seeds=6 --app=mix \
      --out-dir=verify-failures
    ./build-asan/bench/verify_fuzz --seeds=2 --app=rkv \
      --inject=stale-read --expect-fail --no-shrink
    ./build-asan/bench/verify_fuzz --seeds=2 --app=dt \
      --inject=lost-abort --expect-fail --no-shrink
    ;;

  # NF pipelines: the pipeline runtime + NF regression tests under
  # ASan+UBSan (stages hold packets across actor hops and the egress
  # reorder point buffers them), then the bench, which exits nonzero on
  # any egress order violation and must print the same bytes under
  # --jobs=8.  CI uploads BENCH_nfp_ci.json.
  nfp-smoke)
    compile build-asan ipipe_tests nf_pipeline
    run_tests build-asan \
      -R 'LeakyBucket|Maglev|PipelineSpec|Stages|NicPool|PipelineE2E'
    ./build-asan/bench/nf_pipeline --jobs=1 \
      --bench-json=BENCH_nfp_ci.json > nfp.jobs1.txt
    ./build-asan/bench/nf_pipeline --jobs=8 > nfp.jobs8.txt
    same nfp.jobs1.txt nfp.jobs8.txt \
      "nf_pipeline output differs between --jobs=1 and --jobs=8" \
      "nf_pipeline: byte-identical under --jobs=8"
    ;;

  # Multi-tenancy: the tenancy/QoS layer under ASan+UBSan (the TM
  # classifier, token buckets and quota groups all touch packet and DMO
  # lifetimes), then the multi_tenant bench, which exits nonzero unless
  # the victim's p99 stays within 25% of baseline under every aggressor
  # with QoS on, with the damage in the aggressor's ledger.  CI uploads
  # BENCH_mt_ci.json.
  mt-smoke)
    compile build-asan ipipe_tests multi_tenant
    run_tests build-asan \
      -R 'Tenancy|TenantIsolationE2E|TrafficManagerClasses|CountMin|PFabric|PipelineSpec'
    ./build-asan/bench/multi_tenant --jobs=1 \
      --bench-json=BENCH_mt_ci.json
    ;;

  # Sharded scale-out: routing, the NIC hot-key cache and the two-phase
  # rebalance under ASan+UBSan, then the sharded_rkv acceptance bench in
  # Release (8+1 Paxos groups of 3, a million open-loop clients, chaos
  # on).  It exits 2 on a correctness violation, 3 below --min-events and
  # 4 on an SLO breach, and must print byte-identical stdout (acked-floor
  # digest included) for --sim-threads=8 and =1.  CI uploads
  # BENCH_shard_ci.json.
  shard-smoke)
    compile build-asan ipipe_tests
    run_tests build-asan -R 'Shard|RequestId|RkvDedup|ClientGen'
    compile build sharded_rkv
    ./build/bench/sharded_rkv --sim-threads=1 --min-events=10000000 \
      --json-out=BENCH_shard_ci.json > shard.t1.txt
    grep -E '^(ops|cache|rebalance|checker|digest)' shard.t1.txt
    ./build/bench/sharded_rkv --sim-threads=8 > shard.t8.txt
    same shard.t1.txt shard.t8.txt \
      "sharded_rkv stdout differs between --sim-threads=1 and =8" \
      "sharded_rkv: byte-identical under --sim-threads=8"
    ;;

  # Parallelism must not change a simulated result: every sweep bench
  # prints the same bytes under --jobs=8 and --jobs=1, and a short
  # parallel_cluster run the same bytes under --sim-threads=8 and =1 (the
  # full-size run with the speedup floor is parallel-smoke).
  sweep-determinism)
    compile build fig14_15_latency_tput fig16_scheduler ablation_scheduler \
      nf_firewall_ipsec parallel_cluster multi_tenant
    for b in fig14_15_latency_tput fig16_scheduler ablation_scheduler nf_firewall_ipsec multi_tenant; do
      ./build/bench/$b --jobs=1 > "$b.jobs1.txt"
      ./build/bench/$b --jobs=8 > "$b.jobs8.txt"
      same "$b.jobs1.txt" "$b.jobs8.txt" \
        "$b output differs between --jobs=1 and --jobs=8" \
        "$b: byte-identical under --jobs=8"
    done
    ./build/bench/parallel_cluster --sim-threads=1 --duration-s=3 > par.st1.txt
    ./build/bench/parallel_cluster --sim-threads=8 --duration-s=3 > par.st8.txt
    same par.st1.txt par.st8.txt \
      "parallel_cluster output differs between --sim-threads=1 and =8" \
      "parallel_cluster: byte-identical under --sim-threads=8"
    ;;

  # The benchmark (simbench/) builds its driver from src/ on its own: run
  # its self-tests and build the driver, so a src/ API change that breaks
  # it fails here rather than in a benchmark run.
  simbench)
    python3 simbench/run.py --self-test
    cmake -S simbench -B build-simbench
    cmake --build build-simbench -j"$(nproc)" --target simbench_driver
    ;;

  *)
    echo "usage: ci/run.sh <suite>; the suites are:" >&2
    sed -n 's/^  \([a-z0-9-]*\))$/  \1/p' ci/run.sh >&2
    exit 2
    ;;
esac
