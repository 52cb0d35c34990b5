"""Hereditary graph families: named recognizers and finite forbidden sets.

Every family answers one question, ``member(f, g, mask)``: is the subgraph
of g induced on the vertex mask in f?  A named family is decided by a
structural recognizer (mostly by splitting the complement into components
and testing each component's shape) that reads the rows of g inside the
mask, so no subgraph is built.  A forbidden-set family asks
``contains_induced`` within the mask.  Equivalence of each recognizer with
its forbidden-induced-subgraph characterization is established separately
by brute force in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Canon,
    Graph,
    _canon_search,
    _canonical_copy,
    _orbits,
    bits,
    canonical_form,
    canonical_key,
    contains_induced,
    emit_graph6,
    mask_components,
    maximal_stable_sets,
    parse_graph6,
)

# A recognizer takes adjacency rows ``adj`` and a vertex mask ``s`` and
# decides the subgraph induced on s.  It reads only the rows of vertices
# in s, and only their bits inside s.


def _is_clique(adj, s: int) -> bool:
    return all(adj[v] & s == s ^ 1 << v for v in bits(s))


def _is_stable(adj, s: int) -> bool:
    return all(not adj[v] & s for v in bits(s))


def _complement(adj, s: int) -> list[int]:
    """Rows of the complement of the subgraph induced on s (0 outside s)."""
    co = [0] * len(adj)
    for v in bits(s):
        co[v] = s & ~adj[v] ^ 1 << v
    return co


def _is_star(adj, s: int) -> bool:
    """K_{1,m} for m >= 0 (so K1 and K2 count as stars)."""
    degs = sorted((adj[v] & s).bit_count() for v in bits(s))
    m = len(degs)
    return m > 0 and degs[-1] == m - 1 and degs[:-1] == [1] * (m - 1)


def _is_clique_stable_join(adj, s: int) -> bool:
    # Connected join of a clique and a stable set: the clique side is
    # exactly the universal vertices, so the rest must be stable.
    rest = 0
    for v in bits(s):
        if adj[v] & s != s ^ 1 << v:
            rest |= 1 << v
    return _is_stable(adj, rest)


def _is_bipartite(adj, s: int) -> bool:
    # Breadth-first layers from each component's least vertex: an odd
    # cycle shows as an edge inside one layer.
    while s:
        seen = layer = s & -s
        while layer:
            reach = 0
            for v in bits(layer):
                if adj[v] & layer:
                    return False
                reach |= adj[v]
            layer = reach & s & ~seen
            seen |= layer
        s ^= seen
    return True


def _is_split(adj, s: int) -> bool:
    # Hammer-Simeone degree-sequence criterion.
    d = sorted(((adj[v] & s).bit_count() for v in bits(s)), reverse=True)
    m = max((i for i in range(1, len(d) + 1) if d[i - 1] >= i - 1), default=0)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def _is_cograph(adj, s: int) -> bool:
    if not s & s - 1:
        return True
    parts = mask_components(adj, s)
    if len(parts) == 1:
        parts = mask_components(_complement(adj, s), s)
        if len(parts) == 1:
            return False
    return all(_is_cograph(adj, p) for p in parts)


def _is_cogirth5(adj, s: int) -> bool:
    """The complement has girth >= 5: no stable triple (a complement
    triangle) and no induced 2K2 (a complement C4).  So two vertices
    adjacent in the complement share no neighbour there, and two
    non-adjacent ones share at most one; one pass over pairs of
    complement rows checks both."""
    rows = []
    for v in bits(s):
        cv = s & ~adj[v] ^ 1 << v
        bv = 1 << v
        for cu in rows:
            common = cu & cv
            if common and (cu & bv or common & common - 1):
                return False
        rows.append(cv)
    return True


def _is_clique_union_stable(adj, s: int) -> bool:
    comps = mask_components(adj, s)
    return (all(_is_clique(adj, c) for c in comps)
            and sum(1 for c in comps if c & c - 1) <= 1)


def _every_co_component(test):
    """The recognizer of graphs whose complement components all pass
    ``test`` (called with the complement's rows)."""
    def recognize(adj, s: int) -> bool:
        co = _complement(adj, s)
        return all(test(co, c) for c in mask_components(co, s))
    return recognize


_RECOGNIZERS = {
    "clique": _is_clique,
    "stable": _is_stable,
    "co-girth-5": _is_cogirth5,
    "stars-triangles-co": _every_co_component(
        lambda co, c: _is_star(co, c) or (c.bit_count() == 3 and _is_clique(co, c))),
    "stars-cliques-co": _every_co_component(
        lambda co, c: _is_star(co, c) or _is_clique(co, c)),
    "split-join-components-co": _every_co_component(_is_clique_stable_join),
    "cograph": _is_cograph,
    "complete-multipartite": _every_co_component(_is_clique),
    "disjoint-cliques": lambda adj, s: all(
        _is_clique(adj, c) for c in mask_components(adj, s)),
    "co-matching": lambda adj, s: all(
        (s & ~adj[v]).bit_count() <= 2 for v in bits(s)),
    "clique-union-stable": _is_clique_union_stable,
    "split": _is_split,
    "bipartite": _is_bipartite,
    "co-bipartite": lambda adj, s: _is_bipartite(_complement(adj, s), s),
}

NAMED_FAMILIES = tuple(_RECOGNIZERS)

# The minimal forbidden induced subgraphs of each named family, as graph6
# of their canonical forms in canonical_key order.  The bipartite and
# co-bipartite families have none finite (every odd cycle, or its
# complement, is a minimal obstruction), so they are left out.
_NAMED_BASES = {
    "clique": ("A?",),
    "stable": ("A_",),
    "co-girth-5": ("B?", "C`"),
    "stars-triangles-co": ("C?", "C@", "CB", "C`", "CR"),
    "stars-cliques-co": ("C@", "CB", "C`", "CR"),
    "split-join-components-co": ("CB", "C`", "CR"),
    "cograph": ("CR",),
    "complete-multipartite": ("BG",),
    "disjoint-cliques": ("BW",),
    "co-matching": ("B?", "BG"),
    "clique-union-stable": ("BW", "C`"),
    "split": ("C`", "Cr", "DqK"),
}


class NoFiniteBasisError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """Either a named hereditary family or a finite forbidden-induced-set."""

    name: str | None = None
    patterns: tuple[Graph, ...] | None = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.patterns is None):
            raise ValueError("exactly one of name/patterns must be given")
        if self.name is not None and self.name not in _RECOGNIZERS:
            raise ValueError(f"unknown family name {self.name!r}")

    @staticmethod
    def named(name: str) -> "FamilySpec":
        return FamilySpec(name=name)

    @staticmethod
    def forbidden(patterns) -> "FamilySpec":
        seen: dict = {}
        for p in patterns:
            seen.setdefault(canonical_key(p), canonical_form(p))
        canon = tuple(seen[k] for k in sorted(seen))
        return FamilySpec(patterns=canon)

    def label(self) -> str:
        if self.name is not None:
            return self.name
        return "forbid[" + ",".join(emit_graph6(p) for p in self.patterns) + "]"


def member(f: FamilySpec, g: Graph, mask: int | None = None) -> bool:
    """Is the subgraph of g induced on ``mask`` (default: all of g) in f?"""
    if mask is None:
        mask = g.vertex_mask()
    elif mask & ~g.vertex_mask():
        raise ValueError("vertex set outside graph range")
    if f.patterns is not None:
        return not any(contains_induced(g, p, mask) for p in f.patterns)
    return _RECOGNIZERS[f.name](g.adj, mask)


# -- forbidden bases ---------------------------------------------------------


def _subset_orbits(m: int, gens) -> list[int]:
    """For every vertex mask s of {0..m-1}, the least mask of its orbit
    under the group that the vertex permutations ``gens`` generate.  The
    orbit representatives are the masks s with ``orbit[s] == s``."""
    images = []
    for gamma in gens:
        image = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = s & -s
            image[s] = image[s ^ low] | 1 << gamma[low.bit_length() - 1]
        images.append(image)
    return _orbits(1 << m, images)


# _levels[n]: the search result of each class on n vertices, in the
# labelling of its representative (whose rows are the result's rows),
# generated once per process.  It is the only store of classes.
_levels: list[list[Canon]] = []


def _unlabeled_up_to(nmax: int) -> list[Canon]:
    """The search result of every isomorphism class on 0..nmax vertices,
    in level order, each level sorted by canonical rows.  The list holds
    references into ``_levels``, and no graph is built.  Levels not yet
    generated in this process are generated from the last one, so no level
    is built twice.

    Classes are generated by canonical augmentation (McKay, *Isomorph-free
    exhaustive generation*, J. Algorithms 26, 1998).  A class on n vertices
    is built from the representative P of a class on n - 1 by joining a new
    vertex n - 1 to one vertex set from each Aut(P)-orbit.  The extension G
    is kept only when the new vertex lies in the Aut(G)-orbit of G's
    canonical deletion vertex: among the vertices with the largest
    (degree, sorted neighbour degrees), the one with the least canonical
    label.  So each class is built exactly once, from the class of G minus
    that vertex, and no table of classes seen is needed.  An extension
    whose new vertex lacks the largest invariant is dropped before any
    canonical search.  The search runs on the extension unchecked, since
    its rows are symmetric and loop-free by construction; a kept class
    keeps only its search result, carried to its representative's
    labelling, and ``_canonical_copy`` validates those rows once.
    """
    if not _levels:
        _levels.append([_canonical_copy(_canon_search(Graph(0, ())))])
    for n in range(len(_levels), nmax + 1):
        kept = []
        for pc in _levels[-1]:
            pdeg = [row.bit_count() for row in pc.rows]
            for nb, least in enumerate(_subset_orbits(n - 1, pc.gens)):
                if least != nb:
                    continue
                deg = [d + (nb >> i & 1) for i, d in enumerate(pdeg)]
                deg.append(nb.bit_count())
                if deg[-1] < max(deg):
                    continue
                rows = tuple(row | (nb >> i & 1) << (n - 1)
                             for i, row in enumerate(pc.rows)) + (nb,)
                inv = [(deg[v], sorted(deg[u] for u in bits(rows[v])))
                       for v in range(n)]
                top = max(inv)
                if inv[-1] != top:
                    continue
                c = _canon_search(Graph._trusted(n, rows))
                u = min((v for v in range(n) if inv[v] == top),
                        key=c.lab.__getitem__)
                if u != n - 1:
                    orbit = _orbits(n, c.gens)
                    if orbit[u] != orbit[n - 1]:
                        continue
                kept.append(_canonical_copy(c))
        kept.sort(key=lambda c: c.rows)
        _levels.append(kept)
    return [c for level in _levels[:nmax + 1] for c in level]


def _unlabeled_rows(n: int):
    """Each class on n vertices as (canonical rows, n!/|Aut|).  The weight
    comes from the class's search result, so no representative is searched
    again."""
    _unlabeled_up_to(n)
    fact = math.factorial(n)
    return ((c.rows, fact // c.aut) for c in _levels[n])


def _unlabeled_level(n: int):
    """Each class on n vertices as (representative, n!/|Aut|), the
    representative built from the class's rows as it is read."""
    return ((Graph._trusted(n, rows), w) for rows, w in _unlabeled_rows(n))


@lru_cache(maxsize=None)
def named_forbidden_basis(name: str) -> tuple[Graph, ...]:
    """Minimal forbidden induced subgraphs of a named family, read from
    its graph6 table.

    The tests derive every table entry by brute force over all graphs
    with <= 6 vertices (a graph is in the basis iff it is outside the
    family while all its one-vertex deletions are inside) and check that
    each recognizer and its basis agree on every such graph.
    """
    if name not in _RECOGNIZERS:
        raise ValueError(f"unknown family name {name!r}")
    if name not in _NAMED_BASES:
        raise NoFiniteBasisError(
            f"{name} has no finite forbidden-induced basis (odd cycles)")
    return tuple(parse_graph6(text) for text in _NAMED_BASES[name])


def basis_of(f: FamilySpec) -> tuple[Graph, ...]:
    if f.patterns is not None:
        return f.patterns
    return named_forbidden_basis(f.name)


@lru_cache(maxsize=None)
def family_subset(a: FamilySpec, b: FamilySpec) -> bool:
    """True iff every graph in a is in b.

    By heredity this holds iff every minimal obstruction of b contains some
    minimal obstruction of a as an induced subgraph.
    """
    basis_a = basis_of(a)
    return all(any(contains_induced(q, p) for p in basis_a)
               for q in basis_of(b))


def is_restricted(f: FamilySpec) -> bool:
    """Family misses some bipartite graph, some co-bipartite graph, and
    some split graph; for a forbidden-basis family this means the basis
    holds one pattern of each kind."""
    b = basis_of(f)
    return all(any(member(FamilySpec.named(kind), p) for p in b)
               for kind in ("bipartite", "co-bipartite", "split"))


# -- girth-5 statistics ------------------------------------------------------


def s_statistic(g: Graph) -> int:
    """Max size of a stable set no vertex sees twice; equivalently a max
    stable set of the distance-<=2 graph, the largest of its maximal
    stable sets."""
    if g.n > 24:
        raise ValueError("s_statistic limited to n <= 24")
    sq = []
    for v in range(g.n):
        reach = g.adj[v]
        for u in bits(g.adj[v]):
            reach |= g.adj[u]
        sq.append(reach & ~(1 << v))
    return max(s.bit_count() for s in maximal_stable_sets(sq, g.vertex_mask()))


def heavy_degree_check(g: Graph) -> bool:
    """At most sqrt(n) vertices of degree > 3*sqrt(n)/2, with their degree
    sum at most 3n/2 (exact integer arithmetic)."""
    n = g.n
    heavy = [d for d in g.degrees() if 4 * d * d > 9 * n and d > 0]
    return len(heavy) ** 2 <= n and 2 * sum(heavy) <= 3 * n
