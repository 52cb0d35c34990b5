#!/usr/bin/env python3
"""Enumerate the minimal really canonical witnessing k-sequences for the
even cycles C6..C12 and tally their classifications.  The bracketed time
is CPU seconds of this process (time.process_time).

Usage: python3 scripts/sequence_survey.py [--max-cycle 12]
"""

import argparse
import time
from collections import Counter

from wpnlab.graphs import cycle, emit_graph6
from wpnlab.sequences import (
    MAX_SEQUENCE_VERTICES,
    classify_sequence,
    enumerate_really_canonical_sequences,
)
from wpnlab.witnessing import wpn


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-cycle", type=int, default=12)
    ap.add_argument("--show-sequences", action="store_true")
    args = ap.parse_args()
    # checked before the first row, so a run past the cap prints none
    if args.max_cycle > MAX_SEQUENCE_VERTICES:
        ap.error(f"--max-cycle is at most {MAX_SEQUENCE_VERTICES}, the "
                 f"sequences cap, got {args.max_cycle}")

    for n in range(6, args.max_cycle + 1, 2):
        g = cycle(n)
        k = wpn(g)
        t0 = time.process_time()
        seqs = enumerate_really_canonical_sequences(g, k)
        labels = [classify_sequence(g, s) for s in seqs]
        tally = Counter(labels)
        print(f"C{n} (k={k}): {len(seqs)} sequences, "
              f"{dict(sorted(tally.items()))}  [{time.process_time() - t0:.1f}s]")
        if args.show_sequences:
            for s, label in zip(seqs, labels):
                fams = " | ".join(
                    ",".join(emit_graph6(p) for p in f.patterns)
                    for f in s.parts)
                print(f"    {fams}  ->  {label}")


if __name__ == "__main__":
    main()
