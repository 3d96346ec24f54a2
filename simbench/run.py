#!/usr/bin/env python3
"""Benchmark of the iPipe simulator: four open-loop workloads.

    python3 simbench/run.py --workload <rkv_paxos|sched_bimodal|
                                        shard_fixed_chaos|shard_chaos|all>
                            [--seed N] [--seconds S] [--trace 0|1]
    python3 simbench/run.py --self-test

Run from the repository root.  Builds simbench_driver from ../src into
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench), runs each
repetition of the workload in a driver process of its own, runs the
correctness checks and prints every metric with its unit and direction.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes a Chrome/Perfetto trace.  Exits nonzero when the build, the
run or a check fails; see simbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = {
    "rkv_paxos": "RKV Multi-Paxos + LSM, 3 replicas, 300k req/s KV mix",
    "sched_bimodal": "Fig. 16(b) hybrid FCFS/DRR scheduler at 0.9 load",
    "shard_chaos": "sharded RKV, 10^6 clients, chaos + live rebalance, 2 threads",
    "shard_fixed_chaos": "sharded RKV, 10^6 clients, fixed faults + live "
                         "rebalance, 2 threads",
}
# Host seconds of timed run in one repetition on a 4-core x86 box; with
# --seconds they fix how many repetitions a run makes (the same count on
# every machine, so the simulated metrics depend on the seed alone).  A
# sharded repetition is a whole scenario at 2 engine threads (4.2 vsec in
# about 27 s, 8 vsec in about 50 s) and usually runs once.
REP_SECONDS = {"rkv_paxos": 3.0, "sched_bimodal": 1.9, "shard_chaos": 60.0,
               "shard_fixed_chaos": 27.0}
# Seconds one driver process may take.  A sharded traced process runs its
# scenario three times (shard_chaos about 2.5 min; it is not in
# BENCHMARK.json).
DRIVER_TIMEOUT_S = {"rkv_paxos": 170, "sched_bimodal": 170, "shard_chaos": 600,
                    "shard_fixed_chaos": 170}
CHECK_FAILED = 3  # exit code when the run completed but a check failed
MIN_SETUPS = 3  # set-ups a run times at least, for the setup_s median


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = CHECKOUT / target
    return target / "simbench"


def build(targets):
    """Configure and build `targets` (incremental after the first run)."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"simbench: build failed: {' '.join(cmd)}")
    return out


def provenance(doc):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # The ceiling keeps git from finding a repository above a checkout
        # that is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                                env=env, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    # Identifies the code even where git does not.
    h = hashlib.sha256()
    for root in ("src", "simbench"):
        for p in sorted((CHECKOUT / root).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(CHECKOUT)).encode())
                h.update(p.read_bytes())
    return {
        "machine": f"{platform.node()} {platform.machine()} {cpu}",
        "nproc": os.cpu_count(),
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "engine_threads": doc["threads"],
        "seed": doc["seed"],
        "git_commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


def run_driver(driver, workload, seed, rep, trace, out, setups=0):
    cmd = [str(driver), f"--workload={workload}", f"--seed={seed}",
           f"--rep={rep}", f"--setups={setups}", f"--trace={int(trace)}",
           f"--out={out}"]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=DRIVER_TIMEOUT_S[workload]).returncode
    except subprocess.TimeoutExpired:
        raise SystemExit(f"simbench: {workload} exceeded "
                         f"{DRIVER_TIMEOUT_S[workload]} s")
    if rc != 0:
        raise SystemExit(f"simbench: driver exited {rc}")
    return json.loads(Path(out).read_text())


def run_one(args):
    out_dir = build(["simbench_driver"])
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    driver = out_dir / "simbench_driver"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        docs = [run_driver(driver, args.workload, args.seed, 0, True,
                           results / f"{stem}.raw.json")]
    else:
        # One process per repetition: each peak RSS is one repetition's.
        # Every repetition times its own set-up; a run of fewer than
        # MIN_SETUPS repetitions adds set-up-only passes to its first
        # process, so setup_s is always a median of several.
        reps = max(1, int(args.seconds // REP_SECONDS[args.workload]))
        docs = [run_driver(driver, args.workload, args.seed, i, False,
                           results / f"{stem}.rep{i}.raw.json",
                           setups=max(0, MIN_SETUPS - reps) if i == 0 else 0)
                for i in range(reps)]
    prov = provenance(docs[0])
    print(f"# simbench {args.workload}: {WORKLOADS[args.workload]}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))

    if args.trace:
        (doc,) = docs
        values = metrics.per_layer(doc)
        units = metrics.PER_LAYER
        for name, value in values.items():
            print(f"{name:34s} {value:>18.6g} {units[name]}")
        trace_path = results / f"{stem}.perfetto.json"
        trace_path.write_text(json.dumps(metrics.chrome_trace(
            doc["spans"], {"provenance": prov, "per_layer": values})))
        print(f"# trace: {trace_path}")
    else:
        values, samples = metrics.end_to_end(docs)
        units = {k: u for k, (u, _) in metrics.END_TO_END.items()}
        for name, value in values.items():
            unit, better = metrics.END_TO_END[name]
            note = ""
            if name in ("sim_iqm_us", "sim_p99_us"):
                note = (f"samples={samples['latency_samples']} "
                        f"beyond_p99={samples['beyond_p99']} "
                        f"p50={samples['p50_us']:.3f}us")
            print(f"{name:26s} {value:>16.6f} {unit:9s} {better:6s} {note}")
        print(f"# medians over {samples['reps']} repetitions; "
              f"fail_ratio={samples['fail_ratio']:.6f} (1 - served_ratio); "
              "generator lateness 0 by construction (virtual time)")
        print(f"# worst repetition: p99={samples['max_p99_us']:.3f}us "
              f"peak_rss={samples['max_peak_rss_mb']:.3f}MB")
    for doc in docs:
        for r in doc["reps"]:
            if r["label"] == "setup":
                continue
            print(f"# digest {r['label']} seed={r['seed']} "
                  f"threads={r['threads']}: {r['digest']}")
    verdicts = metrics.checks(docs)
    for name, ok in verdicts:
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    disagree, checked = metrics.library_checker_disagreements(docs)
    if checked:
        print(f"# verify::check_kv_linearizable disagreed with the "
              f"linearizable check on {disagree} of {checked} repetitions "
              "(a defect of that checker; see simbench/README.md)")
    (results / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": values, "checks": verdicts},
        indent=1))
    failed = sum(1 for _, ok in verdicts if not ok)
    print(metrics.result_line(failed == 0, len(verdicts), failed, values,
                              units))
    return 0 if failed == 0 else CHECK_FAILED


def run_all(args):
    """Each workload in a process of its own, so peak RSS is its own."""
    merged, units, correct, attempted, failed = {}, {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, CHECK_FAILED) or not lines:
            raise SystemExit(f"simbench: {workload} did not run")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for name, m in last["metrics"].items():
            merged[f"{workload}.{name}"] = m["value"]
            units[f"{workload}.{name}"] = m["unit"]
    print(metrics.result_line(correct, attempted, failed, merged, units))
    return 0 if correct else CHECK_FAILED


def self_test():
    rc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         str(HERE / "tests")]).returncode
    out_dir = build(["simbench_selftest"])
    rc |= subprocess.run([str(out_dir / "simbench_selftest")]).returncode
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
