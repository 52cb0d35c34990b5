"""The four workloads: the CLI invocations each round makes, built from the
run's seed by the benchmark alone (no wpnlab import), so that caller and
worker derive the same inputs.

A round is a fixed list of `wpn-lab` invocations ("operations").  The
census invocations pass `--threads 1`, so that a WPNLAB_THREADS setting in
the caller's environment cannot move their work into a process pool that
the worker's clocks and tracer do not see.

Every round of a workload does the same work, whatever the seed and the
round number: the seed only relabels vertices or picks among inputs that
are isomorphic, so that it changes the inputs but not their cost.  The one
exception is `sequences`, whose cost depends on the labelling of C12 by
several percent; its input is C12 in cycle order, and the seed picks
which sequence the oracle re-derives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("census-labeled", "census-unlabeled", "sequences",
             "sample-partitions")

# The labeled n = 7 census is split by the CLI into 64 shards keyed by the
# six highest edge bits, which are the six edges among vertices 3..6 (see
# PREFIX_EDGES).  A shard is therefore "all graphs whose restriction to
# {3,4,5,6} is one labelled 4-vertex graph", and two shards whose 4-vertex
# graphs are isomorphic hold the same graphs up to relabelling: same counts
# and, over 32768 graphs, the same cost.  A round resumes the census from a
# manifest in which every shard is done except one shard of each class
# below, each picked at random within its class.
LABELED_N = 7
PREFIX_BITS = 6
PREFIX_EDGES = ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6))
FRESH_CLASSES = (
    ((3, 4), (3, 5)),            # P3: two edges sharing a vertex, 12 shards
    ((3, 4), (3, 5), (4, 6)),    # P4: a three-edge path, 12 shards
)

SAMPLES_N50 = 2000
SAMPLES_N2000 = 400


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""
    argv: tuple[str, ...]
    check: dict


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 62), written apart from wpnlab's encoder."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    stream = [1 if (i, j) in adj else 0 for j in range(n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    body = "".join(chr(63 + int("".join(map(str, stream[k:k + 6])), 2))
                   for k in range(0, len(stream), 6))
    return chr(63 + n) + body


def relabelled_cycle(m: int, rng: random.Random) -> str:
    perm = list(range(m))
    rng.shuffle(perm)
    return graph6(m, [(perm[i], perm[(i + 1) % m]) for i in range(m)])


def prefix_graph_key(prefix: int) -> tuple:
    """Canonical edge set of the 4-vertex graph a shard prefix encodes."""
    es = [PREFIX_EDGES[b] for b in range(PREFIX_BITS) if prefix >> b & 1]
    best = None
    for perm in itertools.permutations(range(3, 7)):
        m = dict(zip(range(3, 7), perm))
        k = tuple(sorted(tuple(sorted((m[u], m[v]))) for u, v in es))
        if best is None or k < best:
            best = k
    return best


def prefix_classes() -> dict[tuple, list[int]]:
    classes: dict[tuple, list[int]] = {}
    for p in range(1 << PREFIX_BITS):
        classes.setdefault(prefix_graph_key(p), []).append(p)
    return classes


class Inputs:
    """All inputs of one run; round(r) gives round r's operations and, for
    the labeled census, the shards it computes afresh."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload}/{seed}")
        if workload == "census-labeled":
            self.forbid = relabelled_cycle(6, rng)
            classes = prefix_classes()
            self._members = [classes[prefix_graph_key(_mask(c))]
                             for c in FRESH_CLASSES]
        elif workload == "census-unlabeled":
            self.forbids = {m: relabelled_cycle(m, rng) for m in (6, 8, 10)}
        elif workload == "sequences":
            self.graph = graph6(12, [(i, (i + 1) % 12) for i in range(12)])

    def fresh_shards(self, r: int) -> list[int]:
        rng = random.Random(f"{self.workload}/{self.seed}/{r}")
        return sorted(rng.choice(members) for members in self._members)

    def round(self, r: int) -> list[Op]:
        w = self.workload
        if w == "census-labeled":
            return [Op(("census", "--n", str(LABELED_N), "--forbid", self.forbid,
                        "--theorem", "c6", "--resume", "{manifest}",
                        "--threads", "1", "--format", "json"),
                       {"fresh": self.fresh_shards(r)})]
        if w == "census-unlabeled":
            return [Op(("census", "--n", "7", "--forbid", self.forbids[m],
                        "--theorem", f"c{m}", "--mode", "unlabeled",
                        "--threads", "1", "--format", "json"),
                       {"theorem": f"c{m}"})
                    for m in (6, 8, 10)]
        if w == "sequences":
            return [Op(("sequences", "--graph", self.graph, "--k", "5",
                        "--format", "json"), {})]
        rng = random.Random(f"{w}/{self.seed}/{r}")
        return [Op(("sample-partitions", "--n", str(n), "--samples",
                    str(samples), "--seed", str(rng.randrange(1 << 30)),
                    "--format", "json"), {"n": n, "samples": samples})
                for n, samples in ((50, SAMPLES_N50), (2000, SAMPLES_N2000))]


def _mask(edges) -> int:
    return sum(1 << PREFIX_EDGES.index(e) for e in edges)
