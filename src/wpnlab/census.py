"""Exhaustive censuses of small graphs: H-free counts, theorem-certifiable
counts, and girth-5 degree statistics.

Both modes run one fold over (rows, weight, flip) triples, ``rows`` a
graph's tuple of adjacency rows: each graph is tested for an induced
forbidden cycle, certified, cross-checked for soundness and counted with
its weight.  Labeled mode feeds it every edge subset (n <= 7) with weight
1, sharded by edge-mask prefix for parallel and resumable runs.  A shard
walks its low edge bits in Gray-code order, so each graph is the last one
with one edge flipped: two XORs on a list of adjacency rows, and no
validation; ``flip`` is the vertex mask of that edge's two ends.  The
pairs (0, j) are the lowest edge bits, so the walk runs in blocks of
2^(n-1) graphs that share G - 0, and the H-free test is split at vertex
0: what G - 0 alone decides is computed whenever G - 0 changes (once a
block), and every graph reads only vertex 0's row against it.
Unlabeled-weighted mode feeds it the canonical rows of each isomorphism
class (n <= 9, ``families._classes``) with weight n!/|Aut| and flip 0, so
each class computes its own split; this reproduces the labeled totals
exactly, and agreement of the two modes is itself a census invariant for
n <= 7.  A ``Graph`` is built only for a certificate search and for the
validated cross-check.  A labeled run has 2^min(6, C(n, 2)) shards at any
thread count; unlabeled runs are serial, so they take no manifest and
only one thread (`--threads 1`).

Under every theorem the fold keeps certificates as part masks in the
theorem's slot order.  If the newest one held on the graph before, only
the part that holds both ends of the flipped pair is rechecked (the part
rule): a recognizer reads only its part's rows inside the part, so no
other part's verdict can change.  Else the few most recently used
certificates are checked whole, and then the theorem's search runs, which
for c6 tries the maximal stable sets.

All fractions are exact rationals; reports contain no wall-clock data, so a
report is byte-identical for a fixed configuration regardless of thread
count or resume history.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache, partial
from time import monotonic

from .families import (
    _RECOGNIZERS,
    _classes,
    _is_cogirth5,
    heavy_degree_check,
    s_statistic,
)
from .graphs import (
    Graph,
    bits,
    contains_induced,
    emit_graph6,
    is_isomorphic,
    maximal_stable_sets,
    parse_graph6,
)
from .witnessing import find_certificate, theorem_cycle, theorem_sequence

# A labeled C6 census at n = 7 (2^21 graphs) takes 6.4-7.1 CPU s; the
# 2^28 graphs of n = 8 extrapolate to about 0.4-0.8 CPU hours, never run.
MAX_LABELED_N = 7
# A whole n = 9 C6 census (274668 classes) took 50.4 CPU s and 167 MB on
# one CPU of a 2-vCPU machine, most of it class generation; n = 10 has
# about 12 million classes and was never run.
MAX_UNLABELED_N = 9
# How many recently used certificates the fold tries before a search.
CERTIFICATES_KEPT = 4


class ConfigMismatch(Exception):
    """Resume manifest was produced under a different configuration."""


# -- canonical JSON -----------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def render_fraction(fr: Fraction) -> dict:
    """Exact p/q plus a 15-significant-digit decimal rendering."""
    with localcontext() as ctx:
        ctx.prec = 15
        dec = Decimal(fr.numerator) / Decimal(fr.denominator)
    return {
        "exact": f"{fr.numerator}/{fr.denominator}",
        "decimal": str(dec),
    }


# -- enumerators ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _edge_mask_rows(n: int, mask: int) -> list[int]:
    rows = [0] * n
    for e, (i, j) in enumerate(_pair_order(n)):
        if mask >> e & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _shard_graphs(n: int, prefix: int, low: int):
    """(rows, flip) for every graph whose edge mask is prefix * 2^low + r,
    r < 2^low, in Gray-code order of r: step t flips edge ctz(t), two XORs
    on a row list, and ``flip`` is the vertex mask of that edge's two ends
    (0 for the first graph).  Each graph is its tuple of adjacency rows,
    symmetric and loop-free by construction, so none is validated and no
    ``Graph`` is built.

    The pairs (0, j) are the n - 1 lowest edge bits, so the walk runs in
    blocks of 2^(n-1) graphs that differ only in vertex 0's row: G - 0
    changes exactly at the steps whose flip avoids vertex 0."""
    pairs = _pair_order(n)
    rows = _edge_mask_rows(n, prefix << low)
    yield tuple(rows), 0
    for t in range(1, 1 << low):
        i, j = pairs[(t & -t).bit_length() - 1]
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        yield tuple(rows), 1 << i | 1 << j


# -- fast per-graph predicates -------------------------------------------------


@lru_cache(maxsize=None)
def _subsets_without_0(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, vertex tuple) for every k-subset of range(1, n)."""
    return tuple((sum(1 << v for v in combo), combo)
                 for combo in itertools.combinations(range(1, n), k))


def _connected(adj, mask: int, start: int) -> bool:
    """The subgraph induced on ``mask`` is connected (``start`` in it)."""
    seen = 1 << start
    frontier = adj[start] & mask
    while frontier:
        seen |= frontier
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v] & mask
        frontier = nxt & ~seen
    return seen == mask


def _cycle_split(adj, m: int):
    """The induced-C_m test split at vertex 0, read from the rows of G - 0
    alone (adjacency to vertex 0 is never read; m >= 3).

    An induced C_m avoids vertex 0, or is vertex 0 joined to the two ends,
    and to no other vertex, of an induced path on m - 1 vertices of G - 0.
    So this yields (0, 0) and stops if some m-set avoiding vertex 0
    induces C_m, and else yields (T, ends) for each (m-1)-set T avoiding
    vertex 0 that induces a path, ``ends`` the mask of its two end
    vertices.  G has an induced C_m exactly when ``adj[0] & T == ends``
    for some yielded pair, which (0, 0) meets on every row."""
    n = len(adj)
    for mask, verts in _subsets_without_0(n, m):
        for v in verts:
            if (adj[v] & mask).bit_count() != 2:
                break
        else:
            # 2-regular on m vertices is a disjoint union of cycles
            if _connected(adj, mask, verts[0]):
                yield 0, 0
                return
    for mask, verts in _subsets_without_0(n, m - 1):
        ends = 0
        for v in verts:
            d = (adj[v] & mask).bit_count()
            if d == 1:
                ends |= 1 << v
            elif d != 2:
                break
        else:
            # degrees 1, 1, 2, ..., 2 make one path beside some cycles
            if ends.bit_count() == 2 and \
                    _connected(adj, mask, ends.bit_length() - 1):
                yield mask, ends


def has_induced_cycle(g: Graph, m: int) -> bool:
    """g has an induced C_m, m >= 3 (see ``_cycle_split``)."""
    if m < 3:
        raise ValueError(f"an induced cycle needs m >= 3 vertices, got {m}")
    # the split of a graph on no vertex is empty, so adj[0] is never read
    return any(g.adj[0] & t == ends for t, ends in _cycle_split(g.adj, m))


def c6_certificate(g: Graph) -> tuple[int, int] | None:
    """Part masks (co-girth-5, stable) of a c6 certificate of g, or None.
    By heredity of co-girth-5 the maximal stable sets suffice."""
    adj = g.adj
    full = g.vertex_mask()
    for s in maximal_stable_sets(adj, full):
        if _is_cogirth5(adj, full ^ s):
            return full ^ s, s
    return None


# -- census --------------------------------------------------------------------


@dataclass(frozen=True)
class CensusConfig:
    n: int
    forbidden_g6: str
    theorem: str
    mode: str  # "labeled" | "unlabeled"
    shard_prefix_bits: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("labeled", "unlabeled"):
            raise ValueError("mode must be labeled or unlabeled")
        nmax = MAX_LABELED_N if self.mode == "labeled" else MAX_UNLABELED_N
        if not 1 <= self.n <= nmax:
            raise ValueError(f"{self.mode} census supports 1 <= n <= {nmax}")
        cyc = theorem_cycle(self.theorem)
        if not is_isomorphic(parse_graph6(self.forbidden_g6), cyc):
            raise ValueError(
                f"theorem {self.theorem} expects the forbidden graph C{cyc.n}")
        nbits = self.n * (self.n - 1) // 2
        if not 0 <= self.shard_prefix_bits <= min(nbits, 12):
            raise ValueError("bad shard prefix length")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "forbidden": self.forbidden_g6,
            "theorem": self.theorem,
            "mode": self.mode,
            "shard_prefix_bits": self.shard_prefix_bits,
        }

    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass
class CensusReport:
    config: CensusConfig
    total: int
    hfree: int
    certifiable: int
    shards: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.certifiable <= self.hfree <= self.total:
            raise ValueError("census counts violate certifiable <= hfree <= total")

    def certifiable_fraction(self) -> Fraction:
        return Fraction(self.certifiable, self.hfree) if self.hfree else Fraction(0)

    def to_dict(self) -> dict:
        """The report's data; the CLI's envelope adds the configuration
        and its hash."""
        return {
            "total": str(self.total),
            "hfree": str(self.hfree),
            "certifiable": str(self.certifiable),
            "certifiable_fraction": render_fraction(self.certifiable_fraction()),
            "shards": self.shards,
        }


def _holds(adj, hint) -> bool:
    """Every (recognizer, part mask) pair of ``hint`` accepts its part."""
    for recognize, mask in hint:
        if not recognize(adj, mask):
            return False
    return True


def _fold(config: CensusConfig, stream) -> tuple[int, int, int]:
    """Weighted (total, hfree, certifiable) over (rows, weight, flip)
    triples, ``rows`` a graph's tuple of adjacency rows.  A nonzero
    ``flip`` is the vertex mask of the one pair whose adjacency differs
    from the graph before; 0 says nothing of it, and is the first flip.

    The H-free test is split at vertex 0 (``_cycle_split``): a flip that
    holds vertex 0 leaves G - 0 as it was, so the split of the graph
    before is reused; any other flip, 0 included (the first graph of a
    shard, and every unlabeled class), builds the split afresh.  Every
    graph then reads only vertex 0's row against the split.

    Certificates are kept as (family recognizer, part mask) pairs, last
    slot first: cliques and stable sets fail fastest.  If the newest one
    held on the graph before and the pair flipped, only its part holding
    both ends of the pair is rechecked: every other part induces what it
    did, and a recognizer reads only its part's rows inside the part.  If
    that fails, or there is no flip, the ``CERTIFICATES_KEPT`` most
    recently used certificates are checked whole, newest first; else the
    theorem's search runs on a ``Graph`` of the rows, which gives part
    masks in the theorem's slot order.  The soundness cross-check runs on
    a validated graph of every certifiable row tuple when n <= 6, else of
    every 1024th one visited, counted without weights."""
    n = config.n
    forb = theorem_cycle(config.theorem)
    m = forb.n
    seq = theorem_sequence(config.theorem)
    recognizers = [_RECOGNIZERS[f.name] for f in seq.parts]
    # c6 keeps its maximal-stable-set search, the faster one
    search = c6_certificate if config.theorem == "c6" else \
        partial(find_certificate, seq=seq)
    exhaustive_check = n <= 6
    total = hfree = certifiable = checked = 0
    split = None    # _cycle_split of the current G - 0
    kept = []       # most recently used first
    held = False    # kept[0] holds on the graph before
    for rows, w, flip in stream:
        total += w
        if not flip & 1:
            split = tuple(_cycle_split(rows, m))
        a0 = rows[0]
        hit = False
        for t, ends in split:
            if a0 & t == ends:
                hit = True
                break
        if hit:
            held = False
            continue
        hfree += w
        first = 0
        if held and flip:
            for recognize, mask in kept[0]:
                if mask & flip == flip:
                    held = recognize(rows, mask)
                    first = 1
                    break
        else:
            held = False
        if not held:
            for k in range(first, len(kept)):
                if _holds(rows, kept[k]):
                    kept.insert(0, kept.pop(k))
                    break
            else:
                parts = search(Graph._trusted(n, rows))
                if parts is None:
                    continue
                kept.insert(0, list(zip(recognizers, parts))[::-1])
                del kept[CERTIFICATES_KEPT:]
            held = True
        certifiable += w
        checked += 1
        if exhaustive_check or checked % 1024 == 1:
            g = Graph(n, rows)
            if contains_induced(g, forb):
                raise RuntimeError(
                    "soundness cross-check failed: certifiable graph "
                    f"{emit_graph6(g)} contains the forbidden cycle")
    return total, hfree, certifiable


def _shard_bits(config: CensusConfig) -> int:
    """Low edge bits that vary within a shard of the labeled census."""
    return config.n * (config.n - 1) // 2 - config.shard_prefix_bits


def _count_shard(config: CensusConfig, prefix: int) -> dict:
    """Exact counts over one edge-mask-prefix shard of the labeled census."""
    total, hfree, certifiable = _fold(
        config, ((rows, 1, flip) for rows, flip in
                 _shard_graphs(config.n, prefix, _shard_bits(config))))
    return {"prefix": prefix, "done": True,
            "total": total, "hfree": hfree, "certifiable": certifiable}


def _merge_report(config: CensusConfig, shard_counts: list[dict]) -> CensusReport:
    ordered = sorted(shard_counts, key=lambda s: s["prefix"])
    return CensusReport(
        config=config,
        total=sum(s["total"] for s in ordered),
        hfree=sum(s["hfree"] for s in ordered),
        certifiable=sum(s["certifiable"] for s in ordered),
        shards=ordered,
    )


def _load_manifest(path: str, config: CensusConfig) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    if manifest.get("config_hash") != config.hash():
        raise ConfigMismatch(
            "manifest was produced under a different configuration")
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise ValueError(f"manifest {path} has no shard list")
    seen = set()
    size = 1 << _shard_bits(config)
    for s in shards:
        if not isinstance(s, dict) or type(s.get("done")) is not bool or any(
                type(s.get(k)) is not int
                for k in ("prefix", "total", "hfree", "certifiable")):
            raise ValueError(f"manifest shard {s!r} needs integer prefix, "
                             "total, hfree, certifiable and boolean done")
        if not 0 <= s["prefix"] < 1 << config.shard_prefix_bits:
            raise ValueError(f"manifest shard prefix {s['prefix']} out of range")
        if s["prefix"] in seen:
            raise ValueError(f"manifest shard prefix {s['prefix']} repeats")
        seen.add(s["prefix"])
        if s["done"] and not 0 <= s["certifiable"] <= s["hfree"] <= s["total"] == size:
            raise ValueError(f"manifest shard {s['prefix']} has impossible counts")
    return shards


def _write_manifest(path: str, config: CensusConfig, shards: list[dict]) -> None:
    payload = {"config_hash": config.hash(),
               "shards": sorted(shards, key=lambda s: s["prefix"])}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
    os.replace(tmp, path)


def census(n: int, forbidden: Graph, theorem: str, mode: str = "labeled",
           threads: int = 1, manifest_path: str | None = None) -> CensusReport:
    """Exact H-free / certifiable counts; see module docstring for modes."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if mode == "unlabeled" and manifest_path:
        raise ValueError("unlabeled census takes no manifest")
    if mode == "unlabeled" and threads > 1:
        raise ValueError(f"unlabeled census is serial and takes 1 thread, "
                         f"got {threads}")
    # a fixed shard layout, so reports are byte-identical at any thread count
    config = CensusConfig(
        n=n, forbidden_g6=emit_graph6(forbidden), theorem=theorem, mode=mode,
        shard_prefix_bits=min(6, n * (n - 1) // 2) if mode == "labeled" else 0)
    if mode == "unlabeled":
        fact = math.factorial(n)
        total, hfree, certifiable = _fold(
            config, ((c.rows, fact // c.aut, 0) for c in _classes(n)))
        return CensusReport(config=config, total=total, hfree=hfree,
                            certifiable=certifiable)

    done: dict[int, dict] = {}
    if manifest_path and os.path.exists(manifest_path):
        done = {s["prefix"]: s for s in _load_manifest(manifest_path, config)
                if s["done"]}
    pending = [p for p in range(1 << config.shard_prefix_bits) if p not in done]
    shards = list(done.values())
    if manifest_path:  # an unwritable path fails before any shard is counted
        _write_manifest(manifest_path, config, shards)
    workers = min(threads, len(pending))
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    task = partial(_count_shard, config)
    fresh = pool.imap_unordered(task, pending) if pool else map(task, pending)
    written = monotonic()
    try:
        # A killed run loses only the shards of its last second and those in
        # progress.  Each write costs the whole manifest: writing after every
        # shard made an n = 6 run of 4096 eight-graph shards 7 times slower.
        for s in fresh:
            shards.append(s)
            if manifest_path and monotonic() - written >= 1:
                _write_manifest(manifest_path, config, shards)
                written = monotonic()
    finally:
        if pool:
            pool.terminate()
        if manifest_path:  # a run that fails keeps every finished shard
            _write_manifest(manifest_path, config, shards)
    return _merge_report(config, shards)


# -- girth-5 statistics --------------------------------------------------------


@dataclass
class Girth5Report:
    graphs: int                 # girth >= 5 graphs (forests included)
    heavy_check_passed: int
    s_distribution: dict        # s(G) -> count
    max_degree_distribution: dict

    def to_dict(self) -> dict:
        return {
            "graphs": str(self.graphs),
            "heavy_check_passed": str(self.heavy_check_passed),
            "s_distribution": {str(k): str(v) for k, v in
                               sorted(self.s_distribution.items())},
            "max_degree_distribution": {str(k): str(v) for k, v in
                                        sorted(self.max_degree_distribution.items())},
        }


def girth5_census(n: int, mode: str = "labeled") -> Girth5Report:
    """Statistics over all girth->=5 graphs on n vertices.

    All statistics are isomorphism-invariant, so labeled counts come from
    orbit weighting; heavy_degree_check must pass on every graph.
    """
    if mode not in ("labeled", "unlabeled"):
        raise ValueError("mode must be labeled or unlabeled")
    if not 1 <= n <= MAX_UNLABELED_N:
        raise ValueError(f"girth-5 census supports 1 <= n <= {MAX_UNLABELED_N}")
    graphs = heavy_ok = 0
    s_dist: dict[int, int] = {}
    deg_dist: dict[int, int] = {}
    fact = math.factorial(n)
    for c in _classes(n):
        g = Graph._trusted(n, c.rows)
        # girth >= 5 iff no C3 and no C4 is induced: a C4 with a chord
        # holds a triangle
        if has_induced_cycle(g, 3) or has_induced_cycle(g, 4):
            continue
        w = fact // c.aut if mode == "labeled" else 1
        graphs += w
        if heavy_degree_check(g):
            heavy_ok += w
        s = s_statistic(g)
        s_dist[s] = s_dist.get(s, 0) + w
        dmax = max(g.degrees(), default=0)
        deg_dist[dmax] = deg_dist.get(dmax, 0) + w
    return Girth5Report(graphs=graphs, heavy_check_passed=heavy_ok,
                        s_distribution=s_dist,
                        max_degree_distribution=deg_dist)
