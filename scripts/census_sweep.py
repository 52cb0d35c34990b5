#!/usr/bin/env python3
"""Sweep the C6-free census over a range of n and tabulate the certifiable
fraction, the quantity behind the trend gate.

Usage: python3 scripts/census_sweep.py --nmax 8 [--theorem c6]
       python3 scripts/census_sweep.py --mode labeled --nmax 7 [--threads 2]
"""

import argparse
import time

from wpnlab.census import CensusConfig, census
from wpnlab.graphs import emit_graph6
from wpnlab.witnessing import theorem_cycle


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmin", type=int, default=4)
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--theorem", default="c6")
    ap.add_argument("--mode", choices=("labeled", "unlabeled"),
                    default="unlabeled")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    if args.mode == "unlabeled" and args.threads > 1:
        ap.error("an unlabeled census is serial, so it takes only --threads 1")

    # the census's own checks, made on both ends of the range before any row
    try:
        forb = theorem_cycle(args.theorem)
        for n in (args.nmin, args.nmax):
            CensusConfig(n, emit_graph6(forb), args.theorem, args.mode)
    except ValueError as e:
        ap.error(str(e))

    print(f"{'n':>3} {'total':>12} {'hfree':>12} {'certifiable':>12} "
          f"{'fraction':>10} {'secs':>8}")
    for n in range(args.nmin, args.nmax + 1):
        t0 = time.time()
        rep = census(n, forb, args.theorem, mode=args.mode,
                     threads=args.threads)
        frac = rep.certifiable_fraction()
        print(f"{n:>3} {rep.total:>12} {rep.hfree:>12} {rep.certifiable:>12} "
              f"{float(frac):>10.5f} {time.time() - t0:>8.2f}")


if __name__ == "__main__":
    main()
