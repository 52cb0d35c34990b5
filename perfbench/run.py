"""wpnlab's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It computes the run's oracle, times
set-up in fresh processes, then sends rounds of `wpn-lab` invocations to
a fresh worker process each, in a closed loop (one caller, one worker at
a time, the next round sent only after the previous reply is checked),
for S seconds, and prints the metrics as the last line of standard
output.  With --trace 1 it alternates plain and traced rounds and reports
the per-layer metrics and the tracing overhead instead.  The workloads,
metrics and seeds are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import Oracle  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

# Set-up is timed in this many set-up-only processes and in every round's.
SETUP_PROCS = 10
WORKER_TIMEOUT_S = 120


def ask(request: dict) -> dict:
    """Send one request to a fresh worker process and wait for it to end."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(request) + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker took more than {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker ended with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wpnlab" / "cli.py").is_file():
        print(f"run.py: no wpnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    inputs = Inputs(args.workload, args.seed)
    oracle = Oracle(args.workload, inputs)
    base = {"workload": args.workload, "seed": args.seed,
            "manifest_shards": oracle.manifest_shards()
            if args.workload == "census-labeled" else []}

    setups = []
    for _ in range(SETUP_PROCS):
        s = ask(dict(base, round=None, trace=False))
        setups.append(s["setup_cpu_s"] * s["setup_factor"])

    rounds = []
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        rep = ask(dict(base, round=r, trace=traced))
        setups.append(rep["setup_cpu_s"] * rep["setup_factor"])
        for op, (rc, out) in zip(inputs.round(r), rep["results"]):
            attempted += 1
            if rc != 0:
                failed += 1
                print(f"round {r} {op.argv[0]}: exit code {rc}", file=sys.stderr)
                continue
            errs = oracle.check(op, out, r)
            if errs:
                correct = False
                print(f"round {r} {op.argv[0]}: {'; '.join(errs)}", file=sys.stderr)
        del rep["results"]
        rep["traced"] = traced
        rounds.append(rep)
        print(f"round {r}{' traced' if traced else ''}: cpu {rep['cpu_s']:.4f} s, "
              f"wall {rep['wall_s']:.4f} s, speed factor {rep['factor']:.4f}, "
              f"normalised {rep['cpu_s'] * rep['factor']:.4f} s, "
              f"kernel mean {rep['kernel_ms']:.4f} ms")
        r += 1
        if args.trace and r % 2:
            continue
        elapsed = time.monotonic() - start
        if elapsed + max(x["wall_s"] for x in rounds[-2:]) > args.seconds:
            break

    plain = [x["cpu_s"] * x["factor"] for x in rounds if not x["traced"]]
    raw_cpu = [x["cpu_s"] for x in rounds if not x["traced"]]
    raw_wall = [x["wall_s"] for x in rounds if not x["traced"]]
    print(f"reference, not gated: median raw cpu {statistics.median(raw_cpu):.4f} s, "
          f"median raw wall {statistics.median(raw_wall):.4f} s, set-ups "
          f"{', '.join(f'{x:.4f}' for x in setups)} s")
    if args.trace:
        traced = [x for x in rounds if x["traced"]]
        traced_norm = statistics.median(x["cpu_s"] * x["factor"] for x in traced)
        metrics = {name: {"value": statistics.median(x["layers"][name] for x in traced),
                          "unit": unit} for name, unit in PER_LAYER}
        metrics["trace.overhead_pct"] = {
            "value": (traced_norm / statistics.median(plain) - 1) * 100, "unit": "%"}
    else:
        metrics = {
            "norm_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(x["peak_rss_mb"] for x in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
