#!/usr/bin/env python3
"""Runs the benchmark declared in BENCHMARK.json as a same-session A/B.

usage:
  bench_ab.py ab <base_dir> <head_dir>   # PAIRS alternating base/head pairs
  bench_ab.py smoke <dir>                # one short run per workload

Both directories are checkouts of this repository. BENCHMARK.json is read
from the head (or smoke) checkout: its `command` runs in each checkout, on
every workload, for `run_seconds`, untraced and on a fixed seed.

`ab` prints, per workload and end-to-end metric, the base and head medians
with their quartiles. It exits 1 if a head median is worse than the base
median by more than the metric's `bound`, if any run reports
`correct: false` or exits without a result, or if the head's share of
failed operations exceeds the base's. `smoke` exits 1 unless every run is
correct with no failed operation.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SEED = 1
SMOKE_SECONDS = 3


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def build(spec, checkout):
    """Compiles the benchmark once, so no measured run pays for a build."""
    cmd = spec["command"]
    build_cmd = ["build" if c == "run" else c for c in cmd[: cmd.index("--")]]
    subprocess.run(build_cmd, cwd=checkout, check=True)


def run_once(spec, checkout, workload, seconds):
    """One untraced run; returns the result object, or None on a crash."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def spread(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(attempted, 1)


def ab(base_dir, head_dir):
    spec = load_spec(head_dir)
    seconds = spec["run_seconds"]
    for checkout in (base_dir, head_dir):
        build(spec, checkout)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            # Alternate which side goes first, so slow drift of the host
            # does not always land on the same side.
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                checkout = base_dir if side == "base" else head_dir
                result = run_once(spec, checkout, name, seconds)
                if result is None:
                    problems.append(f"{name}: a {side} run produced no result")
                    continue
                if not result["correct"]:
                    problems.append(f"{name}: a {side} run reported correct: false")
                runs[side].append(result)
        if len(runs["base"]) < PAIRS or len(runs["head"]) < PAIRS:
            continue
        print(f"{name} ({PAIRS} pairs, {seconds} s, seed {SEED})")
        print(f"  {'metric':<12} {'base median [q1, q3]':>28} "
              f"{'head median [q1, q3]':>28} {'head/base':>9} {'bound':>6}")
        for m in spec["end_to_end"]:
            metric = m["name"]
            base = quartiles([r["metrics"][metric]["value"] for r in runs["base"]])
            head = quartiles([r["metrics"][metric]["value"] for r in runs["head"]])
            ratio = head[1] / base[1] if base[1] else float("inf")
            if m["better"] == "lower":
                worse = head[1] > base[1] * (1 + m["bound"])
            else:
                worse = head[1] < base[1] * (1 - m["bound"])
            print(f"  {metric:<12} {spread(base):>28} {spread(head):>28} "
                  f"{ratio:>9.3f} {m['bound']:>6}{'  WORSE' if worse else ''}")
            if worse:
                problems.append(
                    f"{name}: {metric} head median {head[1]:.6g} {m['unit']} is worse "
                    f"than base {base[1]:.6g} by more than {m['bound']:.0%}")
        base_failed, head_failed = failed_share(runs["base"]), failed_share(runs["head"])
        print(f"  failed share: base {base_failed:.3g}, head {head_failed:.3g}")
        if head_failed > base_failed:
            problems.append(f"{name}: failed share rose from {base_failed:.3g} "
                            f"to {head_failed:.3g}")
    return problems


def smoke(checkout):
    spec = load_spec(checkout)
    build(spec, checkout)
    problems = []
    for w in spec["workloads"]:
        result = run_once(spec, checkout, w["name"], SMOKE_SECONDS)
        if result is None or not result["correct"] or result["failed"] != 0:
            problems.append(f"{w['name']}: {result}")
        else:
            print(f"{w['name']}: correct, {result['attempted']} attempted, 0 failed")
    return problems


def main(argv):
    if len(argv) == 3 and argv[0] == "ab":
        problems = ab(argv[1], argv[2])
    elif len(argv) == 2 and argv[0] == "smoke":
        problems = smoke(argv[1])
    else:
        sys.stderr.write(__doc__)
        return 2
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
