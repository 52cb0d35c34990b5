"""Computations made apart from wpnlab, and the checks of each workload's
CLI output against them.

Nothing here imports wpnlab.  Graphs are lists of adjacency bitmasks; the
isomorphism classes and automorphism counts come from networkx's graph
atlas (all 1253 graphs on at most 7 vertices).

The one output that no oracle here can recompute is the complete list of
minimal sequences of C12 with k = 5; its digest is kept in expected.json,
and `python3 perfbench/oracles.py --write-expected` makes it anew from the
program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# The last six edges of the CLI's edge order on n vertices are the six
# edges among the last four vertices, in this order (for n = 7: 3..6).
_LAST4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- graphs as bitmask rows ----------------------------------------------------


def rows_of(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def parse_graph6(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    stream = []
    for ch in text[1:]:
        v = ord(ch) - 63
        stream.extend(v >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return n, rows_of(n, [p for p, b in zip(pairs, stream) if b])


def _set_bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _is_clique(rows, s: int) -> bool:
    return all(rows[v] & s == s & ~(1 << v) for v in _set_bits(s))


def _is_stable(rows, s: int) -> bool:
    return all(rows[v] & s == 0 for v in _set_bits(s))


@lru_cache(maxsize=None)
def atlas(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(rows, |Aut|) for every isomorphism class on n <= 7 vertices."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != n:
            continue
        aut = sum(1 for _ in nx.vf2pp_all_isomorphisms(g, g))
        out.append((tuple(rows_of(n, g.edges())), aut))
    return tuple(out)


# -- the theorems' families, by their definitions --------------------------------


def has_induced_cycle(n: int, rows, m: int) -> bool:
    """Some m vertices induce C_m (checked with networkx)."""
    if m > n:
        return False
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in _set_bits(rows[u]) if u < v)
    target = nx.cycle_graph(m)
    for s in itertools.combinations(range(n), m):
        sub = g.subgraph(s)
        if sub.number_of_edges() == m and nx.is_isomorphic(sub, target):
            return True
    return False


def _co_rows(rows, a: int) -> list[int]:
    """Complement of g[a], on the original vertex numbers."""
    return [(a & ~rows[v] & ~(1 << v)) if a >> v & 1 else 0
            for v in range(len(rows))]


def _components(rows, a: int) -> list[int]:
    comps = []
    left = a
    while left:
        comp = left & -left
        grow = comp
        while grow:
            nxt = 0
            for v in _set_bits(grow):
                nxt |= rows[v] & a
            grow = nxt & ~comp
            comp |= grow
        comps.append(comp)
        left &= ~comp
    return comps


def co_girth5(rows, a: int) -> bool:
    """The complement of g[a] has no triangle and no 4-cycle."""
    co = _co_rows(rows, a)
    vs = _set_bits(a)
    for x, y, z in itertools.combinations(vs, 3):
        if co[x] >> y & 1 and co[y] >> z & 1 and co[x] >> z & 1:
            return False
    for q in itertools.combinations(vs, 4):
        for w, x, y, z in ((q[0], q[1], q[2], q[3]), (q[0], q[1], q[3], q[2]),
                           (q[0], q[2], q[1], q[3])):
            if (co[w] >> x & 1 and co[x] >> y & 1 and co[y] >> z & 1
                    and co[z] >> w & 1):
                return False
    return True


def _complete_split(rows, c: int) -> bool:
    """c splits into a clique K and a stable set S with every K-S pair
    adjacent."""
    vs = _set_bits(c)
    for r in range(len(vs) + 1):
        for ks in itertools.combinations(vs, r):
            k = sum(1 << v for v in ks)
            s = c & ~k
            if (_is_clique(rows, k) and _is_stable(rows, s)
                    and all(rows[v] & k == k for v in _set_bits(s))):
                return True
    return False


def _star_or_clique(rows, c: int) -> bool:
    if _is_clique(rows, c):
        return True
    for centre in _set_bits(c):
        leaves = c & ~(1 << centre)
        if rows[centre] & leaves == leaves and _is_stable(rows, leaves):
            return True
    return False


def _clique_cover(rows, s: int, j: int) -> bool:
    """s is a union of at most j cliques."""
    if s == 0:
        return True
    if j == 0:
        return False
    low = s & -s
    rest = s & ~low
    sub = rest
    while True:
        part = sub | low
        if _is_clique(rows, part) and _clique_cover(rows, s & ~part, j - 1):
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & rest


def certifiable(theorem: str, n: int, rows) -> bool:
    """A theorem's partition of V(g) exists: c6 is a co-girth-5 part and a
    stable part; c8 (c10) is a part whose complement's components are
    complete split graphs (stars or cliques) and two (three) cliques."""
    full = (1 << n) - 1
    for a in range(1 << n):
        rest = full & ~a
        if theorem == "c6":
            if _is_stable(rows, rest) and co_girth5(rows, a):
                return True
            continue
        co = _co_rows(rows, a)
        if theorem == "c8":
            if (_clique_cover(rows, rest, 2) and all(
                    _complete_split(co, c) for c in _components(co, a))):
                return True
        elif theorem == "c10":
            if (_clique_cover(rows, rest, 3) and all(
                    _star_or_clique(co, c) for c in _components(co, a))):
                return True
        else:
            raise ValueError(f"no oracle for theorem {theorem!r}")
    return False


# -- census oracles ------------------------------------------------------------


@lru_cache(maxsize=None)
def _flags(theorem: str, n: int) -> tuple[tuple[tuple[int, ...], int, bool, bool], ...]:
    m = int(theorem[1:])
    out = []
    for rows, aut in atlas(n):
        hfree = not has_induced_cycle(n, rows, m)
        out.append((rows, aut, hfree, hfree and certifiable(theorem, n, rows)))
    return tuple(out)


def census_totals(theorem: str, n: int) -> dict:
    """Labeled totals by orbit weighting n!/|Aut| over the atlas."""
    total = hfree = cert = 0
    for _, aut, h, c in _flags(theorem, n):
        w = math.factorial(n) // aut
        total += w
        hfree += w * h
        cert += w * c
    return {"total": total, "hfree": hfree, "certifiable": cert}


def last4_table(theorem: str, n: int) -> dict[int, dict]:
    """Labeled counts split by the labelled graph the census induces on the
    last four vertices, keyed by its six edge bits in the CLI's order.

    A labelled copy of g is a bijection V(g) -> [n] up to Aut(g).  The copies
    whose last four vertices induce the labelled graph F number
    (n-4)! * T / |Aut(g)|, with T the ordered 4-tuples of distinct vertices
    of g that induce F under the order of the tuple.
    """
    table = {p: {"prefix": p, "total": 0, "hfree": 0, "certifiable": 0}
             for p in range(64)}
    for rows, aut, h, c in _flags(theorem, n):
        tuples: dict[int, int] = {}
        for t in itertools.permutations(range(n), 4):
            p = sum(1 << b for b, (i, j) in enumerate(_LAST4_EDGES)
                    if rows[t[i]] >> t[j] & 1)
            tuples[p] = tuples.get(p, 0) + 1
        for p, count in tuples.items():
            w, rem = divmod(math.factorial(n - 4) * count, aut)
            if rem:
                raise AssertionError("orbit count is not a whole number")
            table[p]["total"] += w
            table[p]["hfree"] += w * h
            table[p]["certifiable"] += w * c
    return table


def fraction_json(num: int, den: int) -> str:
    fr = Fraction(num, den) if den else Fraction(0)
    return f"{fr.numerator}/{fr.denominator}"


# -- Bell numbers and the block count of a uniform partition --------------------


@lru_cache(maxsize=None)
def bell_numbers(upto: int) -> tuple[int, ...]:
    """B_0..B_upto by the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(upto):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        bells.append(row[0])
    return tuple(bells)


def block_count_moments(n: int) -> tuple[float, float]:
    """Mean B_{n+1}/B_n - 1 and variance B_{n+2}/B_n - (B_{n+1}/B_n)^2 - 1
    of the number of blocks of a uniform partition of an n-set."""
    b = bell_numbers(n + 2)
    r1 = Fraction(b[n + 1], b[n])
    return float(r1 - 1), float(Fraction(b[n + 2], b[n]) - r1 * r1 - 1)


# -- witnessing sequences by brute force -----------------------------------------


def _copies(n: int, rows, pattern_g6: str) -> list[int]:
    """Vertex masks of the induced copies of a pattern in g (networkx)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    pn, prows = parse_graph6(pattern_g6)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in _set_bits(rows[u]) if u < v)
    p = nx.Graph()
    p.add_nodes_from(range(pn))
    p.add_edges_from((u, v) for u in range(pn) for v in _set_bits(prows[u]) if u < v)
    return sorted({sum(1 << v for v in m)
                   for m in GraphMatcher(g, p).subgraph_isomorphisms_iter()})


def admits_partition(n: int, rows, families: list[list[str]]) -> bool:
    """Some partition of V(g) into len(families) parts, empty parts allowed,
    puts in part i no induced copy of a pattern of family i."""
    k = len(families)
    copies = [[] for _ in range(k)]
    for i, fam in enumerate(families):
        cs = [c for pat in fam for c in _copies(n, rows, pat)]
        copies[i] = [[c for c in cs if c >> v & 1] for v in range(n)]
    masks = [0] * k

    def rec(v: int) -> bool:
        if v == n:
            return True
        tried_empty = set()
        for i in range(k):
            if masks[i] == 0:
                key = tuple(families[i])
                if key in tried_empty:
                    continue  # identical empty parts are interchangeable
                tried_empty.add(key)
            m = masks[i] | 1 << v
            if any(c & ~m == 0 for c in copies[i][v]):
                continue
            masks[i] = m
            if rec(v + 1):
                return True
            masks[i] = m ^ 1 << v
        return False

    return rec(0)


def is_really_canonical(families: list[list[str]]) -> bool:
    for fam in families:
        pats = [parse_graph6(p) for p in fam]
        if any(_is_clique(r, (1 << pn) - 1) for pn, r in pats) and \
                any(_is_stable(r, (1 << pn) - 1) for pn, r in pats):
            return False
    return True


# -- output checks, one per workload ---------------------------------------------


class Oracle:
    """What a run's outputs are checked against; built once per run."""

    def __init__(self, workload: str, inputs):
        self.workload = workload
        self.inputs = inputs
        if workload == "census-labeled":
            self.table = last4_table("c6", 7)
            self.totals = census_totals("c6", 7)
            if any(self.table[p]["total"] != 1 << 15 for p in self.table) or \
                    self.totals["total"] - self.totals["hfree"] != \
                    7 * 60 * 64 - 21 * 60 * 2:
                raise AssertionError("census oracle disagrees with closed forms")
        elif workload == "census-unlabeled":
            self.totals = {t: census_totals(t, 7) for t in ("c6", "c8", "c10")}
        elif workload == "sequences":
            self.expected = json.loads(EXPECTED.read_text())["sequences-C12-k5"]
        else:
            self.moments = {n: block_count_moments(n) for n in (50, 2000)}

    def manifest_shards(self) -> list[dict]:
        """All 64 shards as done, counted by the oracle; a labeled round's
        worker drops the shards it computes afresh."""
        return [dict(self.table[p], done=True) for p in range(64)]

    def check(self, op, out: str, r: int) -> list[str]:
        """Problems with the output of an operation that exited 0, in round
        r; empty when it is right."""
        try:
            report = json.loads(out)
        except ValueError:
            return ["output is not JSON"]
        return getattr(self, "_check_" + self.workload.replace("-", "_"))(
            op, report, r)

    def _census(self, report: dict, totals: dict, forbid: str, theorem: str,
                mode: str) -> list[str]:
        errs = []
        for key in ("total", "hfree", "certifiable"):
            if report.get(key) != str(totals[key]):
                errs.append(f"{key} {report.get(key)} != {totals[key]}")
        frac = fraction_json(totals["certifiable"], totals["hfree"])
        if report.get("certifiable_fraction", {}).get("exact") != frac:
            errs.append("certifiable_fraction differs")
        cfg = report.get("config", {})
        if (cfg.get("forbidden"), cfg.get("theorem"), cfg.get("n"), cfg.get("mode")) \
                != (forbid, theorem, 7, mode):
            errs.append(f"config differs: {cfg}")
        return errs

    def _check_census_labeled(self, op, report, r) -> list[str]:
        errs = self._census(report, self.totals, self.inputs.forbid, "c6",
                            "labeled")
        shards = {s.get("prefix"): s for s in report.get("shards", [])}
        if sorted(shards) != list(range(64)):
            errs.append("report does not list the 64 shards")
        for p in op.check["fresh"]:
            got = {k: shards.get(p, {}).get(k) for k in ("total", "hfree",
                                                         "certifiable")}
            want = {k: self.table[p][k] for k in got}
            if got != want:
                errs.append(f"shard {p}: {got} != {want}")
        return errs

    def _check_census_unlabeled(self, op, report, r) -> list[str]:
        t = op.check["theorem"]
        return self._census(report, self.totals[t], self.inputs.forbids[int(t[1:])],
                            t, "unlabeled")

    def _check_sequences(self, op, report, r) -> list[str]:
        errs = []
        seqs = report.get("sequences", [])
        digest = hashlib.sha256(canonical_json(seqs).encode()).hexdigest()
        if report.get("count") != len(seqs) or \
                [len(seqs), digest] != [self.expected["count"], self.expected["sha256"]]:
            errs.append(f"{len(seqs)} sequences, digest {digest[:12]}, "
                        f"expected {self.expected['count']}")
        for i, s in enumerate(seqs):
            if s.get("classification", "NoMatch") == "NoMatch":
                errs.append(f"sequence {i} is not classified")
            if not is_really_canonical(s["families"]):
                errs.append(f"sequence {i} is not really canonical")
        if errs:
            return errs
        # A seeded sample is witnessing, and minimal: dropping any one
        # pattern lets a partition through.
        n, rows = parse_graph6(self.inputs.graph)
        rng = random.Random(f"sequences/{self.inputs.seed}/{r}")
        i = rng.randrange(len(seqs))
        fams = seqs[i]["families"]
        if admits_partition(n, rows, fams):
            errs.append(f"sequence {i} is not witnessing")
        for a, fam in enumerate(fams):
            for b in range(len(fam)):
                smaller = [f if c != a else f[:b] + f[b + 1:]
                           for c, f in enumerate(fams)]
                if not admits_partition(n, rows, smaller):
                    errs.append(f"sequence {i} is not minimal at {a},{b}")
        return errs

    def _check_sample_partitions(self, op, report, r) -> list[str]:
        n, count = op.check["n"], op.check["samples"]
        rows = report.get("samples", [])
        if len(rows) != count:
            return [f"{len(rows)} samples, expected {count}"]
        threshold = math.log(n) ** 3
        errs = []
        for s in rows:
            k, ns, heavy = s["blocks"], s["nonsingletons"], s["heavy_vertices"]
            if not (1 <= k <= n and 0 <= ns <= k and (k - ns) + 2 * ns <= n
                    and 0 <= heavy <= n and (heavy == 0 or heavy > threshold)):
                errs.append(f"invalid row {s}")
                break
        mean, var = self.moments[n]
        got = sum(s["blocks"] for s in rows) / count
        z = abs(got - mean) / math.sqrt(var / count)
        if z > 5:
            errs.append(f"mean block count {got:.3f}: z = {z:.1f} from {mean:.3f}")
        return errs


def write_expected() -> None:
    """Record the digest of today's C12, k = 5 sequence list."""
    import contextlib
    import io

    sys.path.insert(0, str(HERE.parent / "src"))
    from wpnlab import cli

    from workloads import graph6

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["sequences", "--graph",
                       graph6(12, [(i, (i + 1) % 12) for i in range(12)]),
                       "--k", "5", "--format", "json"])
    if rc != 0:
        raise SystemExit(f"sequences exited with {rc}")
    seqs = json.loads(buf.getvalue())["sequences"]
    EXPECTED.write_text(canonical_json({"sequences-C12-k5": {
        "count": len(seqs),
        "sha256": hashlib.sha256(canonical_json(seqs).encode()).hexdigest(),
    }}) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-expected"]:
        raise SystemExit("usage: python3 perfbench/oracles.py --write-expected")
    write_expected()
