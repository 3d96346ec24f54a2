"""Turns simbench_driver's raw results into the benchmark's metrics.

Pure functions over the JSON document `simbench_driver` writes, so the
self-tests in simbench/tests can check them without a build.
"""

import json
import statistics

# name -> (unit, better).  The end-to-end metrics come from untraced runs.
END_TO_END = {
    "wall_us_per_op": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ops_per_s": ("ops/vsec", "higher"),
    "sim_iqm_us": ("us", "lower"),
    "sim_p99_us": ("us", "lower"),
    "served_ratio": ("ratio", "higher"),
    "sim_host_core_us_per_op": ("us", "lower"),
}

# name -> unit.  Read from the traced run.  A metric a workload has no
# layer for (the parallel engine's counters on a sequential workload,
# the hot-key cache outside shard_chaos, ...) reads 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.rounds": "count",
    "sim.events_per_round": "count",
    "sim.stalled_windows": "count",
    "sim.handoffs": "count",
    "sim.parallel_speedup": "ratio",
    "netsim.frames_sent": "count",
    "netsim.frames_dropped.fault": "count",
    "netsim.frames_dropped.partition": "count",
    "netsim.frames_dropped.node_down": "count",
    "netsim.pool_hit_rate": "ratio",
    "nic.rx_frames": "count",
    "nic.tm_drops": "count",
    "nic.sim_core_util": "ratio",
    "host.sim_core_util": "ratio",
    "ipipe.downgrades": "count",
    "ipipe.upgrades": "count",
    "ipipe.fcfs_util": "ratio",
    "ipipe.drr_util": "ratio",
    "ipipe.push_migrations": "count",
    "ipipe.pull_migrations": "count",
    "ipipe.nic_request_share": "ratio",
    "ipipe.chan_msgs": "count",
    "ipipe.chan_retransmits": "count",
    "ipipe.chan_backpressure_us": "us",
    "ipipe.watchdog_kills": "count",
    "ipipe.evacuations": "count",
    "ipipe.reoffloads": "count",
    "rkv.memtable_flushes": "count",
    "rkv.cache_hit_ratio": "ratio",
    "rkv.cache_invals": "count",
    "rkv.cache_wipes": "count",
    "client.retransmits": "count",
    "client.redirects": "count",
    "client.wrong_shard_retries": "count",
    "client.abandoned": "count",
    "client.fail_ratio": "ratio",
    "setup.testbed_s": "s",
    "setup.apps_s": "s",
    "setup.workloads_s": "s",
    "verify.check_s": "s",
    "verify.ops_checked": "count",
    "verify.states_explored": "count",
    "verify.library_checker_disagrees": "count",
    "run.slice_ns_per_event.p50": "ns",
    "run.slice_ns_per_event.max": "ns",
    "bench.trace_overhead": "ratio",
}


def fail_ratio(rep):
    """(abandoned + expired + unanswered after drain) / sent."""
    return rep["failed"] / rep["sent"] if rep["sent"] else 0.0


def served_ratio(rep):
    """completed / sent; with sent = completed + failed, 1 - fail_ratio."""
    return rep["completed"] / rep["sent"] if rep["sent"] else 0.0


def reps_labelled(doc, label):
    return [r for r in doc["reps"] if r["label"] == label]


def end_to_end(docs):
    """Medians over the untraced repetitions (one driver process each),
    plus sample counts and the worst repetition.  setup_s also counts
    the set-up-only passes ("setup") of a run with few repetitions."""
    reps = [r for doc in docs for r in reps_labelled(doc, "untraced")]
    med = statistics.median
    values = {
        "wall_us_per_op": med(r["wall_s"] * 1e6 / max(r["completed"], 1)
                              for r in reps),
        "setup_s": med(r["setup_s"] for doc in docs for r in doc["reps"]
                       if r["label"] in ("untraced", "setup")),
        "peak_rss_mb": med(doc["peak_rss_kb"] for doc in docs) / 1024.0,
        "sim_ops_per_s": med(r["completed_in_window"] / r["window_s"]
                             for r in reps),
        "sim_iqm_us": med(r["iqm_ns"] / 1e3 for r in reps),
        "sim_p99_us": med(r["p99_ns"] / 1e3 for r in reps),
        "served_ratio": med(served_ratio(r) for r in reps),
        "sim_host_core_us_per_op": med(
            r["host_busy_ns_in_window"] / 1e3 / max(r["completed_in_window"], 1)
            for r in reps),
    }
    samples = {
        "latency_samples": sum(r["latency_samples"] for r in reps),
        "beyond_p99": sum(r["beyond_p99"] for r in reps),
        "reps": len(reps),
        "p50_us": med(r["p50_ns"] / 1e3 for r in reps),
        "fail_ratio": med(fail_ratio(r) for r in reps),
        "max_p99_us": max(r["p99_ns"] / 1e3 for r in reps),
        "max_peak_rss_mb": max(doc["peak_rss_kb"] for doc in docs) / 1024.0,
    }
    return values, samples


def slice_ns_per_event(rep):
    """Host ns per simulated event of each run_until slice that ran any."""
    return [wall * 1e9 / events for wall, events, _ in rep["slices"] if events]


def per_layer(doc):
    """Per-layer metrics of a traced document."""
    (untraced,) = reps_labelled(doc, "untraced")
    (traced,) = reps_labelled(doc, "traced")
    one_thread = reps_labelled(doc, "traced_1thread")
    values = {name: 0.0 for name in PER_LAYER}
    values.update(traced["counters"])
    values["sim.events"] = traced["events"]
    values["sim.host_ns_per_event"] = traced["wall_s"] * 1e9 / max(traced["events"], 1)
    if one_thread:
        values["sim.parallel_speedup"] = one_thread[0]["wall_s"] / traced["wall_s"]
    values["client.fail_ratio"] = fail_ratio(traced)
    for phase in ("testbed", "apps", "workloads"):
        values[f"setup.{phase}_s"] = traced[f"setup.{phase}_s"]
    per_slice = slice_ns_per_event(traced)
    if per_slice:
        values["run.slice_ns_per_event.p50"] = statistics.median(per_slice)
        values["run.slice_ns_per_event.max"] = max(per_slice)
    values["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return {name: values[name] for name in PER_LAYER}


def library_checker_disagreements(docs):
    """Repetitions on which verify::check_kv_linearizable's verdict
    differed from the benchmark's own checker's, and repetitions checked."""
    flags = [r["counters"]["verify.library_checker_disagrees"]
             for doc in docs for r in doc["reps"]
             if "verify.library_checker_disagrees" in r["counters"]]
    return int(sum(flags)), len(flags)


def checks(docs):
    """(name, passed) for every check of every repetition.  A traced
    document also checks that replaying the seed, at either engine
    thread count, reproduced the same digest."""
    out = [(f"{r['label']}.{name}", ok) for doc in docs
           for r in doc["reps"] for name, ok in r["checks"].items()]
    for doc in docs:
        if doc["traced"]:
            digests = {r["digest"] for r in doc["reps"]}
            out.append(("replay_digest_identical", len(digests) == 1))
    return out


def self_times(spans):
    """span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start_s"], s["end_s"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start_s"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end_s"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end_s"] - s["start_s"]) - covered
    return out


def chrome_trace(spans, metadata):
    """Chrome/Perfetto trace document: one complete event per span."""
    selfs = self_times(spans)
    events = []
    for s in spans:
        args = dict(s["args"])
        args["self_us"] = selfs[s["id"]] * 1e6
        events.append({
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": s["start_s"] * 1e6, "dur": (s["end_s"] - s["start_s"]) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
