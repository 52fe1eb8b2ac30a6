#!/usr/bin/env python3
"""End-to-end performance gate: the fixed-work benchmark, this checkout
against a base revision.

    python3 tools/perf_gate.py --base REV

Checks REV out into a temporary git worktree, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both checkouts for every workload BENCHMARK.json lists, with T its
run_seconds, alternating which checkout goes first from one workload to the
next. Each checkout builds into its own .bench_build (CARGO_TARGET_DIR is
dropped for the runs). The gate fails (exit 1) when, on any workload:

  - this checkout's median wall_s is worse than the base's by more than
    BENCHMARK.json's wall_s bound;
  - the result_hash differs: the same (workload, seed) simulated different
    work;
  - either side reports correct: false, or produces no result.

BENCH_ALLOW_REGRESSION=1 turns the first two into warnings, for a change
that knowingly trades speed or re-baselines results; a failed output check
is never waived. Exit 2 means the gate could not run (bad revision, no git).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Both sides run the same seed, so any fixed value compares like with like.
SEED = 1


def log(msg):
    print("perf_gate: " + msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)


def load_spec():
    """Workload names, run length and wall_s bound, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wall = next(m for m in spec["end_to_end"] if m["name"] == "wall_s")
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"], wall["bound"]


def run_side(checkout, workload, seconds):
    """One perfbench run; returns (result, context), or (None, None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2])["context"]
    except (ValueError, IndexError, KeyError):
        log("%s: no result from %s (exit %d)" % (workload, checkout, proc.returncode))
        return None, None


def compare(workloads, seconds, bound, base_dir):
    """Runs every workload on both sides; returns (failures, waivable)."""
    failures, waivable = [], []
    rows = []
    for i, workload in enumerate(workloads):
        sides = {}
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            log("%s: running %s" % (workload, side))
            sides[side] = run_side(base_dir if side == "base" else ROOT, workload, seconds)
        (base, base_ctx), (change, change_ctx) = sides["base"], sides["change"]
        ok = [r is not None and r["correct"] and "wall_s" in r["metrics"]
              for r in (base, change)]
        if not all(ok):
            failures.append("%s: output check failed on %s" % (
                workload, " and ".join(s for s, good in zip(("base", "change"), ok)
                                       if not good)))
            rows.append((workload, None, None, None, "-"))
            continue
        base_wall = base["metrics"]["wall_s"]["value"]
        change_wall = change["metrics"]["wall_s"]["value"]
        ratio = change_wall / base_wall
        same_hash = base_ctx["result_hash"] == change_ctx["result_hash"]
        rows.append((workload, base_wall, change_wall, ratio, "same" if same_hash else "DIFF"))
        if ratio > 1 + bound:
            waivable.append("%s: median wall_s %.2f s vs base %.2f s (%+.1f%%, bound %+.0f%%)"
                            % (workload, change_wall, base_wall, 100 * (ratio - 1),
                               100 * bound))
        if not same_hash:
            waivable.append("%s: result_hash %s differs from base %s" % (
                workload, change_ctx["result_hash"], base_ctx["result_hash"]))

    print("%-14s %12s %12s %8s %6s" % ("workload", "base wall_s", "wall_s", "ratio", "hash"))
    for workload, base_wall, change_wall, ratio, hash_text in rows:
        if ratio is None:
            print("%-14s %12s %12s %8s %6s" % (workload, "-", "-", "-", hash_text))
        else:
            print("%-14s %12.2f %12.2f %7.3fx %6s" % (workload, base_wall, change_wall, ratio,
                                                      hash_text))
    return failures, waivable


def main():
    parser = argparse.ArgumentParser(description=" ".join(__doc__.split("\n\n")[0].split()))
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args()

    if shutil.which("git") is None:
        log("git not found")
        return 2
    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    if rev.returncode != 0:
        log("cannot resolve base revision %r: %s" % (args.base, rev.stderr.strip()))
        return 2
    base_sha = rev.stdout.strip()
    workloads, seconds, bound = load_spec()

    base_dir = tempfile.mkdtemp(prefix="perf-gate-")
    try:
        add = git("worktree", "add", "--detach", base_dir, base_sha)
        if add.returncode != 0:
            log("git worktree add failed: " + add.stderr.strip())
            return 2
        log("base %s in %s; %d workloads, %s s each, wall_s bound %.2f" % (
            base_sha[:12], base_dir, len(workloads), seconds, bound))
        failures, waivable = compare(workloads, seconds, bound, base_dir)
    finally:
        git("worktree", "remove", "--force", base_dir)
        shutil.rmtree(base_dir, ignore_errors=True)
        git("worktree", "prune")

    waived = bool(os.environ.get("BENCH_ALLOW_REGRESSION"))
    for msg in waivable:
        print(("WARNING (waived by BENCH_ALLOW_REGRESSION): " if waived else "FAIL: ") + msg)
    for msg in failures:
        print("FAIL: " + msg)
    if failures or (waivable and not waived):
        return 1
    print("perf gate passed against %s%s" % (
        base_sha[:12], " with %d waived finding(s)" % len(waivable) if waivable else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
