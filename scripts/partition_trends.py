#!/usr/bin/env python3
"""Empirical block statistics of uniform random set partitions against the
exact Bell-ratio prediction E[#blocks] = B_{n+1}/B_n - 1.

Usage: python3 scripts/partition_trends.py --n 50 --samples 20000 --seed 1
"""

import argparse
import math
import statistics

from wpnlab.counting import (
    UniformPartitionSampler,
    bell,
    block_size_stats,
    heavy_threshold,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.samples < 2:  # the standard error needs two samples
        ap.exit(2, f"{ap.prog}: error: --samples must be at least 2, "
                   f"got {args.samples}\n")

    try:
        sampler = UniformPartitionSampler(args.n, args.seed)
    except ValueError as e:
        ap.exit(2, f"{ap.prog}: error: {e}\n")
    t = heavy_threshold(args.n)
    blocks, nonsingle, heavy = zip(*(block_size_stats(sampler.sample(sizes=True), t)
                                     for _ in range(args.samples)))

    target = bell(args.n + 1) / bell(args.n) - 1
    mean = statistics.fmean(blocks)
    se = statistics.stdev(blocks) / math.sqrt(args.samples)
    print(f"n={args.n}, samples={args.samples}")
    print(f"mean #blocks          {mean:.4f}  (exact {target:.4f}, "
          f"z={(mean - target) / se:+.2f})")
    print(f"mean nonsingletons    {statistics.fmean(nonsingle):.4f}")
    print(f"mean heavy vertices   {statistics.fmean(heavy):.4f} "
          f"(threshold (ln n)^3 = {math.log(args.n) ** 3:.1f})")


if __name__ == "__main__":
    main()
