#!/usr/bin/env python3
"""Fixed-work benchmark of the Scoop simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout. It builds `perfbench_unit`
(Release) from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs units of the workload, one
process each, for about S seconds:

  --trace 0  clean units only; reports the end-to-end metrics.
  --trace 1  rounds of a clean and a traced unit (plus, on the two grid
             workloads, a clean unit of the other grid workload at the same
             seed); reports the per-layer metrics.

Every unit's result CSV is hashed; a unit whose hash differs from the
first unit of its (workload, seed), that exits non-zero, or that produced
no readings or no queries counts as failed. The last line of stdout is the
result JSON; the line before it is the run's context (nproc, build type,
commit, seed, sample counts, and each timing's median and quartiles), which
is also written to <build dir>/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
from statistics import median, quantiles
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# name -> (registered scenario, .scn keys set on it, the workload its
# traced run also times for shard.event_inflation and shard.speedup). A
# unit runs every combo of the scenario `trials` times; that many trials
# keep one unit's simulated figures steady across seeds (README.md, "Unit
# size").
WORKLOADS = {
    "grid1024_seq": ("grid_1024", {"trials": "6"}, "grid1024_k4"),
    "grid1024_k4": ("grid_1024", {"trials": "6", "shards": "4", "partition": "mincut"},
                    "grid1024_seq"),
    "churn63": ("churn_reboot", {"trials": "20"}, None),
}
# --self-test: every workload at reduced length (still past stabilization,
# and for churn_reboot past the first crash-reboot wave at minute 14).
SELF_TEST_KEYS = {
    "grid_1024": {"duration_minutes": "4", "trials": "1"},
    "churn_reboot": {"duration_minutes": "16", "trials": "1"},
}
SELF_TEST_SEED = 7

MIN_CLEAN_UNITS = 2
MIN_TRACE_ROUNDS = 1
RUN_DEADLINE_S = 170  # Every unit of one invocation ends by then.

PACKET_TYPES = ["data", "summary", "mapping", "query", "reply", "beacon"]
REGISTRY_COUNTERS = [
    "radio.tx_started", "radio.deliveries", "radio.drops_channel_busy",
    "radio.drops_no_ack", "mac.backoffs_scheduled",
    "data.orphaned", "data.rehomed", "query.reissued", "route.parent_lost",
] + ["wire.bytes." + t for t in PACKET_TYPES]

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "msgs_excl_beacons": "msgs/trial", "query_success": "ratio", "run_ok_share": "ratio",
}
PER_LAYER = {
    "scenario.load_s": "s", "scenario.report_s": "s",
    "topology.build_s": "s", "topology.audible_links": "count",
    "partition.build_s": "s", "partition.cut_edges": "count", "partition.imbalance": "ratio",
    "fault.plan_s": "s", "fault.events": "count", "data.orphaned": "count",
    "data.rehomed": "count", "query.reissued": "count", "route.parent_lost": "count",
    "queue.busy_s": "s", "queue.events": "count", "queue.ns_per_event": "ns",
    "queue.wheel_absorb_rate": "ratio",
    "radio.busy_s": "s", "radio.tx_started": "count", "radio.deliveries": "count",
    "radio.fanout": "rx/tx", "radio.ns_per_delivery": "ns",
    "radio.drops_channel_busy": "count", "radio.drops_no_ack": "count",
    "mac.backoffs_scheduled": "count",
    "agent.busy_s": "s",
    **{"msgs." + t: "count" for t in PACKET_TYPES},
    **{"wire.bytes." + t: "bytes" for t in PACKET_TYPES},
    "retransmissions": "count", "mac_drops": "count",
    "index.built": "count", "index.disseminated": "count", "index.suppressed": "count",
    "shard.sync_s": "s", "shard.sync_share": "ratio", "shard.stall_us": "us",
    "shard.stall_episodes": "count", "shard.mirrored_frames": "count", "shard.cpu_s": "s",
    "harness.trial_s": "s", "harness.collect_s": "s", "trace.unattributed_share": "ratio",
    "obs.profile_overhead": "ratio",
    "shard.event_inflation": "ratio", "shard.speedup": "ratio",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Builds perfbench_unit; returns its path, or None when it cannot."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("no scoop sources next to perfbench/ (expected CMakeLists.txt and src/)")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_unit", "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_unit")


def read_registry(metrics_dir):
    """Sums the final sample of every shard of every trial's metrics JSONL."""
    totals = dict.fromkeys(REGISTRY_COUNTERS, 0)
    for name in sorted(os.listdir(metrics_dir)):
        last = {}
        with open(os.path.join(metrics_dir, name)) as f:
            for line in f:
                row = json.loads(line)
                last[row["shard"]] = row  # Rows are time-ordered.
        for row in last.values():
            for key in totals:
                totals[key] += row.get(key, 0)
    return totals


class Series:
    """The units of one (scenario, keys, seed) in this invocation: their
    outputs, and the output check every unit must pass."""

    def __init__(self, exe, scenario, keys, seed, deadline):
        self.cmd = [exe, "--scenario=" + scenario, "--seed=%d" % seed]
        self.cmd += ["--%s=%s" % kv for kv in sorted(keys.items())]
        self.deadline = deadline
        self.ref_hash = None
        self.clean, self.traced = [], []
        self.attempted = self.failed = 0

    def run(self, traced=False):
        """Runs one unit; returns its wall seconds as seen from here."""
        self.attempted += 1
        cmd = list(self.cmd)
        metrics_dir = None
        if traced:
            metrics_dir = os.path.join(build_dir(), "metrics")
            shutil.rmtree(metrics_dir, ignore_errors=True)
            os.makedirs(metrics_dir)
            cmd.append("--metrics-dir=" + metrics_dir)
        start = time.monotonic()
        problem, out = None, None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - start))
            if proc.returncode != 0:
                problem = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
            else:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            problem = "timed out"
        except (ValueError, IndexError) as e:
            problem = "unreadable output: %s" % e
        if problem is None:
            if out["min_readings_produced"] <= 0 or out["min_queries_issued"] <= 0:
                problem = "a trial produced no readings or issued no queries"
            elif self.ref_hash is None:
                self.ref_hash = out["csv_hash"]
            elif out["csv_hash"] != self.ref_hash:
                problem = "result hash %s differs from the first unit's %s" % (
                    out["csv_hash"], self.ref_hash)
        if problem is None and traced:
            out["registry"] = read_registry(metrics_dir)
        elapsed = time.monotonic() - start
        if problem is not None:
            self.failed += 1
            log("unit failed (%s): %s" % (" ".join(cmd[1:]), problem))
        else:
            (self.traced if traced else self.clean).append(out)
        return elapsed


def spread(xs):
    """Median, quartiles and sample count of one timing."""
    xs = list(xs)
    q = quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(xs)}


def total(out, key):
    """A per-trial mean from the unit, as a total over the unit's trials."""
    return out[key] * out["trials"]


def bucket_sum(out):
    return sum(total(out, "profile_%s_s" % b)
               for b in ("queue", "radio", "agent", "shard_sync", "other"))


def end_to_end_metrics(series, timings):
    clean = series.clean
    timings["wall_s"] = [u["wall_s"] for u in clean]
    timings["setup_s"] = [s for u in clean for s in u["setup_passes_s"]]
    timings["peak_rss_mb"] = [u["peak_rss_mb"] for u in clean]
    return {
        "wall_s": median(timings["wall_s"]),
        "setup_s": median(timings["setup_s"]),
        "peak_rss_mb": median(timings["peak_rss_mb"]),
        "msgs_excl_beacons": clean[0]["msgs_excl_beacons"],
        "query_success": clean[0]["query_success"],
        "run_ok_share": (series.attempted - series.failed) / series.attempted,
    }


def per_layer_metrics(series, other, timings):
    traced, first = series.traced, series.traced[0]
    reg = first["registry"]
    sharded = first["resolved_shards"] > 1

    def timed(name, fn):
        timings[name] = [fn(u) for u in traced]
        return median(timings[name])

    m = {
        "scenario.load_s": timed("scenario.load_s", lambda u: u["load_s"]),
        "scenario.report_s": timed("scenario.report_s", lambda u: u["report_s"]),
        "topology.build_s": timed("topology.build_s", lambda u: u["topology_s"]),
        "topology.audible_links": first["audible_links"],
        "partition.build_s": timed("partition.build_s", lambda u: u["partition_s"]),
        "partition.cut_edges": first["cut_edges"],
        "partition.imbalance": first["imbalance_sum"] / first["trials"],
        "fault.plan_s": timed("fault.plan_s", lambda u: u["fault_s"]),
        "fault.events": first["fault_events"],
        "queue.busy_s": timed("queue.busy_s", lambda u: total(u, "profile_queue_s")),
        "queue.events": round(total(first, "sim_events")),
        "queue.ns_per_event": timed("queue.ns_per_event",
                                    lambda u: 1e9 * u["profile_queue_s"] / u["sim_events"]),
        "queue.wheel_absorb_rate": first["wheel_absorbed"] / (
            first["wheel_absorbed"] + first["wheel_spilled"]),
        "radio.busy_s": timed("radio.busy_s", lambda u: total(u, "profile_radio_s")),
        "radio.fanout": reg["radio.deliveries"] / reg["radio.tx_started"],
        "radio.ns_per_delivery": timed(
            "radio.ns_per_delivery",
            lambda u: 1e9 * total(u, "profile_radio_s") / u["registry"]["radio.deliveries"]),
        "agent.busy_s": timed("agent.busy_s", lambda u: total(u, "profile_agent_s")),
        "retransmissions": round(total(first, "retransmissions")),
        "mac_drops": round(total(first, "mac_drops")),
        "index.built": round(total(first, "indices_built")),
        "index.disseminated": round(total(first, "indices_disseminated")),
        "index.suppressed": round(total(first, "indices_suppressed")),
        "shard.sync_s": timed("shard.sync_s", lambda u: total(u, "profile_shard_sync_s")),
        "shard.sync_share": timed(
            "shard.sync_share",
            lambda u: total(u, "profile_shard_sync_s") / bucket_sum(u) if sharded else 0.0),
        "shard.stall_us": timed("shard.stall_us", lambda u: total(u, "shard_stall_us")),
        "shard.stall_episodes": timed("shard.stall_episodes",
                                      lambda u: total(u, "shard_stall_episodes")),
        "shard.mirrored_frames": round(total(first, "shard_mirrored_frames")),
        "shard.cpu_s": timed("shard.cpu_s", lambda u: bucket_sum(u) if sharded else 0.0),
        "harness.trial_s": timed("harness.trial_s", lambda u: u["trial_s"]),
        "harness.collect_s": timed("harness.collect_s", lambda u: u["collect_s"]),
        # K shard threads each fill their buckets, so /K turns thread time
        # back into elapsed time. The remainder is never folded into a bucket.
        "trace.unattributed_share": timed(
            "trace.unattributed_share",
            lambda u: 1 - (bucket_sum(u) / u["resolved_shards"] + u["trial_setup_s"])
            / u["trial_s"]),
    }
    for key in REGISTRY_COUNTERS:
        m[key] = reg[key]
    for t in PACKET_TYPES:
        m["msgs." + t] = round(total(first, "sent." + t))

    clean_wall = median(u["wall_s"] for u in series.clean)
    timings["traced_wall_s"] = [u["wall_s"] for u in traced]
    m["obs.profile_overhead"] = median(timings["traced_wall_s"]) / clean_wall - 1
    m["shard.event_inflation"] = m["shard.speedup"] = 0.0
    if other is not None:
        seq, k4 = (other, series) if sharded else (series, other)
        m["shard.event_inflation"] = k4.clean[0]["sim_events"] / seq.clean[0]["sim_events"]
        m["shard.speedup"] = (median(u["wall_s"] for u in seq.clean)
                              / median(u["wall_s"] for u in k4.clean))
    return m


def measure(exe, workload, seed, seconds, trace, keys_override=None):
    """Runs one invocation's units; returns (result JSON, context)."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    scenario, keys, pair = WORKLOADS[workload]
    keys = dict(keys, **(keys_override or {}))
    series = Series(exe, scenario, keys, seed, deadline)
    all_series = [series]
    other = None

    def another_fits(last):
        return time.monotonic() - start + last <= seconds

    if trace:
        if pair is not None:
            pair_scenario, pair_keys, _ = WORKLOADS[pair]
            other = Series(exe, pair_scenario, dict(pair_keys, **(keys_override or {})),
                           seed, deadline)
            all_series.append(other)
        rounds, last = 0, 0.0
        while rounds < MIN_TRACE_ROUNDS or another_fits(last):
            # Alternate which of clean and traced runs first, so host drift
            # does not bias obs.profile_overhead.
            order = (False, True) if rounds % 2 == 0 else (True, False)
            last = sum(series.run(traced=t) for t in order)
            if other is not None:
                last += other.run()
            rounds += 1
            if time.monotonic() > deadline:
                break
    else:
        last = 0.0
        while len(series.clean) + series.failed < MIN_CLEAN_UNITS or another_fits(last):
            last = series.run()
            if time.monotonic() > deadline:
                break

    attempted = sum(s.attempted for s in all_series)
    failed = sum(s.failed for s in all_series)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    timings = {}
    complete = all(s.clean for s in all_series) and (not trace or series.traced)
    if complete:
        values = (per_layer_metrics(series, other, timings) if trace
                  else end_to_end_metrics(series, timings))
        units = PER_LAYER if trace else END_TO_END
        result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        result["correct"] = False
    context = {
        "workload": workload,
        "scenario": scenario,
        "keys": keys,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "build_type": series.clean[0]["build_type"] if series.clean else None,
        "commit": commit(),
        "units": {"clean": sum(len(s.clean) for s in all_series),
                  "traced": len(series.traced), "attempted": attempted, "failed": failed},
        "result_hash": series.ref_hash,
        "timings": {k: spread(v) for k, v in timings.items() if v},
        "elapsed_s": time.monotonic() - start,
    }
    return result, context


def commit():
    """The git commit when there is one, and a digest of the sources the
    benchmark builds (a checkout without git still identifies itself)."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git": rev, "source_sha256": digest.hexdigest()}


def record(result, context):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (context["workload"], context["seed"], context["trace"])
    with open(os.path.join(out, name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)


def self_test(exe):
    """Every workload at reduced length, clean and traced: each metric
    BENCHMARK.json names must come out, with its unit, and the run must
    pass its output check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for entry in spec["workloads"]:
        workload = entry["name"]
        scenario = WORKLOADS[workload][0]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = measure(exe, workload, SELF_TEST_SEED, 1, trace,
                                keys_override=SELF_TEST_KEYS[scenario])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if not result["correct"]:
                problems.append("output check failed")
            if got != want:
                problems.append("metrics differ: missing %s, extra %s, wrong unit %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            print("%s %s trace=%d (%d units)" % ("FAIL" if problems else "ok", workload, trace,
                                                result["attempted"]))
            for p in problems:
                print("  " + p)
            ok = ok and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    exe = build()
    if exe is None:
        return 2
    if args.self_test:
        return self_test(exe)
    result, context = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    record(result, context)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
