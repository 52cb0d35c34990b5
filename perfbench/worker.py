"""The worker process: a fresh one for every round, and for every set-up
measurement.

The caller writes one JSON request line: {"workload", "seed",
"manifest_shards", "round", "trace"}.  The worker sets up (imports wpnlab
and builds the round's inputs), measures that set-up, and with "round"
null answers {"setup_cpu_s", "setup_factor"} and exits.  Otherwise it
runs the round's operations through wpnlab.cli.main and answers with the
set-up figures, the round's thread CPU time, wall time, speed factor and
outputs, and its peak RSS.

A fresh process per round makes every round as cold as a `wpn-lab`
invocation, and spreads over the rounds the few percent by which one
process's speed differs from the next.

The process pins itself to one CPU of its own affinity set, so that the
main thread and the kernel sampler share that CPU's speed.  It changes no
other setting.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_wpnlab():
    """wpnlab from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from wpnlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"worker: wpnlab imported from {cli.__file__}, not {src}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def main() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, str(HERE))
    import kernel
    from workloads import Inputs

    cli = _import_wpnlab()
    from wpnlab.census import CensusConfig, canonical_json

    req = json.loads(sys.stdin.readline())
    inputs = Inputs(req["workload"], req["seed"])
    r = req["round"]
    ops = inputs.round(0 if r is None else r)
    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    manifest = work / "manifest.json"
    argvs = []
    for op in ops:
        if "{manifest}" in op.argv:
            config_hash = CensusConfig(n=7, forbidden_g6=inputs.forbid, theorem="c6",
                                       mode="labeled", shard_prefix_bits=6).hash()
            shards = [s for s in req["manifest_shards"]
                      if s["prefix"] not in op.check["fresh"]]
            work.mkdir(parents=True, exist_ok=True)
            manifest.write_text(canonical_json(
                {"config_hash": config_hash, "shards": shards}))
        argvs.append([str(manifest) if a == "{manifest}" else a for a in op.argv])
    setup_cpu = time.thread_time()
    reply = {"setup_cpu_s": setup_cpu, "setup_factor": kernel.speed_factor(
        [kernel.timed_kernel() for _ in range(20)])}
    try:
        if r is not None:
            reply.update(_round(cli, kernel, argvs, req["trace"]))
    finally:
        if work.exists():
            manifest.unlink(missing_ok=True)
            work.rmdir()
            with contextlib.suppress(OSError):
                work.parent.rmdir()
    print(json.dumps(reply), flush=True)


def _round(cli, kernel, argvs: list[list[str]], trace: bool) -> dict:
    import spans

    tracer = spans.Tracer()
    sampler = kernel.Sampler()
    sampler.start()
    try:
        if trace:
            tracer.install()
        w0, c0 = time.monotonic(), time.thread_time_ns()
        results = [run_op(cli, argv) for argv in argvs]
        c1, w1 = time.thread_time_ns(), time.monotonic()
        if trace:
            tracer.uninstall()
        sampler.wait_past(c1)
    finally:
        sampler.stop()
    cpu = (c1 - c0) / 1e9
    factor = sampler.normalise(c0, c1) / cpu
    kernel_ms = [d * 1e3 for _, d in sampler.samples]
    out = {"cpu_s": cpu, "wall_s": w1 - w0, "factor": factor, "results": results,
           "kernel_ms": sum(kernel_ms) / len(kernel_ms),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        out["layers"] = tracer.metrics(factor)
    return out


if __name__ == "__main__":
    main()
