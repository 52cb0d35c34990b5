"""wpn-lab command line interface.

One subcommand per module; JSON reports are canonical (sorted keys, no
whitespace) and carry the tool version plus a configuration hash, so a
fixed configuration yields byte-identical output at any thread count.

Exit codes: 0 success, 1 a verify-claims MISMATCH, 2 precondition violation
(bad input, or a file that cannot be read or written), 3 search budget
exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

from . import __version__
from .census import (
    ConfigMismatch,
    canonical_json,
    census,
    config_hash,
    girth5_census,
)
from .counting import (
    UniformPartitionSampler,
    bell,
    block_size_stats,
    c2l_lower_bound,
    f_star,
    heavy_threshold,
    labeled_cograph_count,
)
from .families import NoFiniteBasisError
from .graphs import Graph, Graph6Error, bits, emit_graph6, parse_adjacency_text, \
    parse_graph6
from .sequences import DEFAULT_BUDGET, classifiable, classify_sequence, \
    enumerate_really_canonical_sequences
from .witnessing import (
    BudgetExhausted,
    find_certificate,
    theorem_sequence,
    verify_cycle_partition_claims,
    wpn,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _parse_graph(text: str) -> Graph:
    if text.startswith("n="):
        return parse_adjacency_text(text)
    return parse_graph6(text)


def _read_graph(text: str) -> Graph:
    """Graph input: a graph6 string, an adjacency-text string, or else a
    file holding either on its first nonblank line.  Text that parses as a
    graph is never taken for a file name."""
    try:
        return _parse_graph(text)
    except ValueError:
        if not os.path.isfile(text):
            raise
    with open(text, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"no graph found in {text}")
    return _parse_graph(lines[0])


def _emit(args, config: dict, data: dict, lines: list[str]) -> None:
    """The one writer of reports: for --format json the canonical JSON of
    data in its envelope (the subcommand, the version, config, which holds
    the command's parameters, and config's hash), else the text or CSV
    lines; to --output if given, else stdout."""
    if args.format == "json":
        text = canonical_json({
            "command": args.subcommand,
            "version": __version__,
            "config": config,
            "config_hash": config_hash(config),
            **data,
        }) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise OSError now, before a run whose report could not be written.
    The probe opens the path for appending, so an existing file keeps its
    content, and removes the file again if the probe created it."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


# -- subcommand handlers -------------------------------------------------------


def _cmd_wpn(args) -> int:
    g = _read_graph(args.graph)
    value = wpn(g)
    config = {"graph": emit_graph6(g)}
    _emit(args, config, {"wpn": value}, [str(value)])
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = _read_graph(args.graph)
    seq = theorem_sequence(args.theorem)
    masks = find_certificate(g, seq)
    config = {"graph": emit_graph6(g), "theorem": args.theorem}
    if masks is None:
        _emit(args, config, {"certificate": None}, ["NONE"])
        return EXIT_OK
    assignment = [0] * g.n
    for i, m in enumerate(masks):
        for v in bits(m):
            assignment[v] = i
    data = {
        "certificate": {
            "assignment": assignment,
            "families": [f.label() for f in seq.parts],
        }
    }
    _emit(args, config, data, [canonical_json(data["certificate"])])
    return EXIT_OK


def _cmd_sequences(args) -> int:
    g = _read_graph(args.graph)
    seqs = enumerate_really_canonical_sequences(g, args.k, budget=args.budget)
    classify = classifiable(g, args.k)
    items = []
    for seq in seqs:
        item = {"families": [[emit_graph6(p) for p in f.patterns]
                             for f in seq.parts]}
        if classify:
            item["classification"] = classify_sequence(g, seq)
        items.append(item)
    config = {"graph": emit_graph6(g), "k": args.k, "budget": args.budget}
    lines = [f"{len(items)} minimal really canonical witnessing {args.k}-sequences"]
    for item in items:
        label = " | ".join(",".join(fam) for fam in item["families"])
        if "classification" in item:
            label += f"  [{item['classification']}]"
        lines.append(label)
    _emit(args, config, {"count": len(items), "sequences": items}, lines)
    return EXIT_OK


def _cmd_verify_claims(args) -> int:
    if args.cycle % 2 or args.cycle < 6:
        raise ValueError("--cycle must be an even number >= 6")
    results = verify_cycle_partition_claims(args.cycle // 2)
    items = []
    ok = True
    for r in results:
        status = "found" if r.found else "absent"
        if r.found != r.expected_found:
            ok = False
        items.append({
            "claim": r.item,
            "parameters": r.parameters,
            "status": status,
            "expected": "found" if r.expected_found else "absent",
            **({"witness": r.witness} if r.witness is not None else {}),
        })
    config = {"cycle": args.cycle}
    lines = [f"{'ok' if ok else 'MISMATCH'}: {len(items)} claim items"]
    lines += [f"{it['claim']} {canonical_json(it['parameters'])}: {it['status']}"
              for it in items]
    _emit(args, config, {"ok": ok, "items": items}, lines)
    return EXIT_OK if ok else 1


_COUNT_FNS = {
    "bell": bell,
    "f1": lambda n: f_star(1, n),
    "f2": lambda n: f_star(2, n),
    "f3": lambda n: f_star(3, n),
    "cographs": labeled_cograph_count,
}


def _decimal(value: int) -> str:
    """Every decimal digit of an integer.  str() stops at 4300 digits and
    takes time quadratic in the length (9 s for the 904717 digits of
    ``bound --n 3000 --l 4``); this halves the bits down to 2048 and joins
    the halves in exact Decimal arithmetic, whose products are
    subquadratic."""
    powers: dict[int, Decimal] = {}

    def convert(v: int, width: int) -> Decimal:
        if width <= 2048:
            return Decimal(v)
        half = width >> 1
        high = v >> half
        if half not in powers:
            powers[half] = Decimal(2) ** half
        return (convert(high, width - half) * powers[half]
                + convert(v - (high << half), half))

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(convert(value, value.bit_length()))


def _cmd_count(args) -> int:
    value = _decimal(_COUNT_FNS[args.fn](args.n))
    config = {"fn": args.fn, "n": args.n}
    _emit(args, config, {"value": value}, [value])
    return EXIT_OK


def _cmd_bound(args) -> int:
    b = c2l_lower_bound(args.n, args.l)
    config = {"n": args.n, "l": args.l}
    data = {
        "exponent": {"numerator": b.exponent.numerator,
                     "denominator": b.exponent.denominator},
        "bell_factor": _decimal(b.bell_factor),
    }
    if b.is_integral():
        data["value"] = text = _decimal(b.exact_value())
    else:
        text = (f"2^({b.exponent.numerator}/{b.exponent.denominator})"
                f" * {data['bell_factor']}")
    _emit(args, config, data, [text])
    return EXIT_OK


def _cmd_sample_partitions(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    sampler = UniformPartitionSampler(args.n, args.seed)
    t = heavy_threshold(args.n)
    rows = [block_size_stats(sampler.sample(sizes=True), t)
            for _ in range(args.samples)]
    config = {"n": args.n, "samples": args.samples, "seed": args.seed}
    data = {"samples": [{"blocks": b, "nonsingletons": ns, "heavy_vertices": h}
                        for b, ns, h in rows]}
    lines = [f"{b},{ns},{h}" for b, ns, h in rows]
    if args.format == "csv":
        lines.insert(0, "blocks,nonsingletons,heavy_vertices")
    _emit(args, config, data, lines)
    return EXIT_OK


def _cmd_census(args) -> int:
    if args.mode == "unlabeled" and args.format == "csv":
        raise ValueError("unlabeled census has no shard rows to write as CSV")
    forb = _read_graph(args.forbid)
    report = census(args.n, forb, args.theorem, mode=args.mode,
                    threads=args.threads, manifest_path=args.resume)
    d = report.to_dict()
    if args.format == "csv":
        lines = ["prefix,total,hfree,certifiable"]
        lines += [f"{s['prefix']},{s['total']},{s['hfree']},{s['certifiable']}"
                  for s in d["shards"]]
    else:
        frac = d["certifiable_fraction"]
        lines = [
            f"n={args.n} forbidden={report.config.forbidden_g6} theorem={args.theorem}",
            f"total={d['total']} hfree={d['hfree']} certifiable={d['certifiable']}",
            f"certifiable_fraction={frac['exact']} ({frac['decimal']})",
        ]
    _emit(args, report.config.to_dict(), d, lines)
    return EXIT_OK


def _cmd_girth5(args) -> int:
    report = girth5_census(args.n, mode=args.mode)
    d = report.to_dict()
    config = {"n": args.n, "mode": args.mode}
    lines = [f"girth>=5 graphs: {d['graphs']}, heavy check passed: "
             f"{d['heavy_check_passed']}"]
    _emit(args, config, d, lines)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpn-lab",
        description="witnessing partitions, certificates and censuses of "
                    "H-free graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, csv=False):
        # CSV only where its lines differ from the text lines
        formats = ("json", "csv", "text") if csv else ("json", "text")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write report to a file")

    p = sub.add_parser("wpn", help="witnessing partition number of a graph")
    p.add_argument("graph", help="graph6 string, adjacency text, or file")
    common(p)
    p.set_defaults(handler=_cmd_wpn)

    p = sub.add_parser("certify", help="search a theorem certificate")
    p.add_argument("graph")
    p.add_argument("--theorem", required=True,
                   help="c6 | c8 | c10 | c2l:<l>")
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("sequences",
                       help="enumerate minimal really canonical witnessing sequences")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(handler=_cmd_sequences)

    p = sub.add_parser("verify-claims",
                       help="exhaustively check the even-cycle partition claims")
    p.add_argument("--cycle", type=int, required=True, help="cycle length 2l")
    common(p)
    p.set_defaults(handler=_cmd_verify_claims)

    p = sub.add_parser("count", help="exact counting functions")
    p.add_argument("--fn", choices=sorted(_COUNT_FNS), required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("bound", help="C_{2l}-free lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("sample-partitions",
                       help="uniform random set partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    common(p, csv=True)
    p.set_defaults(handler=_cmd_sample_partitions)

    p = sub.add_parser("census", help="exhaustive small-n census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True, help="forbidden cycle (graph6)")
    p.add_argument("--theorem", required=True)
    p.add_argument("--mode", choices=("labeled", "unlabeled"),
                   default="labeled")
    p.add_argument("--resume", default=None, help="manifest path")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    common(p, csv=True)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("girth5-census", help="girth>=5 degree statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("labeled", "unlabeled"),
                   default="labeled")
    common(p)
    p.set_defaults(handler=_cmd_girth5)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse: 2 for bad usage, 0 for --help
            return exc.code
        if args.output:
            _check_writable(args.output)
        return args.handler(args)
    except BudgetExhausted as exc:
        print(f"wpn-lab: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, Graph6Error, NoFiniteBasisError, ConfigMismatch,
            OSError) as exc:
        print(f"wpn-lab: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
