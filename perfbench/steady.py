"""Steadiness check: two sets of runs of the same code, compared the way the
benchmark's gate compares a change with its parent.

    python3 perfbench/steady.py [--runs 10] [--workloads W ...]

For each workload it makes --runs runs with seeds 1..runs, then a second
set with seeds runs+1..2*runs, and prints for each end-to-end metric the
median and quartiles of each set, the spread (interquartile distance over
the median) and whether the sets agree within BENCHMARK.json's bounds:
every spread within its bound, the two medians apart by no more than the
bound in either direction, and the same share of failed operations.  It
exits 1 if any of that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} ({wall:.1f} s): {json.dumps(result)}", flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    for w in args.workloads:
        sets = [[run_once(bench, w, seed) for seed in
                 range(1 + k * args.runs, 1 + (k + 1) * args.runs)] for k in (0, 1)]
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        if len(shares[0] | shares[1]) != 1 or not all(r["correct"] for s in sets for r in s):
            print(f"{w}: failed share {shares} or an incorrect run")
            ok = False
        for m in bench["end_to_end"]:
            stats = [spread([r["metrics"][m["name"]]["value"] for r in s]) for s in sets]
            worse = stats[1][1] / stats[0][1] - 1
            if m["better"] == "higher":
                worse = -worse
            agree = abs(worse) <= m["bound"] and all(
                st[3] <= m["bound"] for st in stats)
            ok &= agree
            print(f"{w} {m['name']}: " + " | ".join(
                f"set {k + 1} median {st[1]:.4f} q1 {st[0]:.4f} q3 {st[2]:.4f} "
                f"spread {st[3]:.4f}" for k, st in enumerate(stats))
                + f" | second worse by {worse:+.4f}, bound {m['bound']}: "
                + ("agree" if agree else "DISAGREE"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
