"""Hereditary graph families: named recognizers and finite forbidden sets.

Named families are recognized structurally (mostly by decomposing the
complement into components and testing each component's shape), which keeps
membership O(n^2)-ish.  Equivalence with the forbidden-induced-subgraph
characterizations is established separately by brute force in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    _canon_search,
    _canonical_copy,
    _orbits,
    bits,
    canonical_form,
    canonical_key,
    clique,
    contains_induced,
    emit_graph6,
    parse_graph6,
)

NAMED_FAMILIES = (
    "clique",
    "clique-or-e2",
    "stable",
    "co-girth-5",
    "stars-triangles-co",
    "stars-cliques-co",
    "split-join-components-co",
    "cograph",
    "complete-multipartite",
    "disjoint-cliques",
    "co-matching",
    "clique-union-stable",
    "split",
    "bipartite",
    "co-bipartite",
)

# No finite forbidden-induced basis exists (all odd cycles / their
# complements are minimal obstructions).
_NO_FINITE_BASIS = {"bipartite", "co-bipartite"}

_BASIS_SEARCH_MAX = 6


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
        if self.name is not None and self.name not in NAMED_FAMILIES:
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

    @staticmethod
    def from_cli(text: str) -> "FamilySpec":
        """Family name, or comma-separated graph6 strings as a forbidden set."""
        if text in NAMED_FAMILIES:
            return FamilySpec.named(text)
        return FamilySpec.forbidden(parse_graph6(t) for t in text.split(","))


# -- shape predicates --------------------------------------------------------


def is_clique_graph(g: Graph) -> bool:
    full = g.vertex_mask()
    return all(row == full ^ (1 << i) for i, row in enumerate(g.adj))


def is_stable_graph(g: Graph) -> bool:
    return all(row == 0 for row in g.adj)


def is_star_graph(g: Graph) -> bool:
    """K_{1,m} for m >= 0 (so K1 and K2 count as stars)."""
    if g.n <= 2:
        return g.edge_count() == g.n - 1
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and degs[:-1] == [1] * (g.n - 1)


def is_bipartite_graph(g: Graph) -> bool:
    color = [-1] * g.n
    for v in range(g.n):
        if color[v] != -1:
            continue
        color[v] = 0
        stack = [v]
        while stack:
            u = stack.pop()
            for w in bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_split_graph(g: Graph) -> bool:
    # Hammer-Simeone degree-sequence criterion.
    d = sorted(g.degrees(), reverse=True)
    n = g.n
    m = 0
    for i in range(1, n + 1):
        if d[i - 1] >= i - 1:
            m = i
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def is_cograph(g: Graph) -> bool:
    if g.n <= 1:
        return True
    comps = g.component_masks()
    if len(comps) == 1:
        co = g.complement()
        comps = co.component_masks()
        if len(comps) == 1:
            return False
        return all(is_cograph(co.induced(c)) for c in comps)
    return all(is_cograph(g.induced(c)) for c in comps)


def _is_clique_stable_join(comp: Graph) -> bool:
    # Connected join of a clique and a stable set: the clique side is
    # exactly the universal vertices, so the rest must be stable.
    full = comp.vertex_mask()
    nonuniversal = [v for v in range(comp.n) if comp.adj[v] != full ^ (1 << v)]
    return all(comp.adj[v] & sum(1 << u for u in nonuniversal) == 0
               for v in nonuniversal)


def girth(g: Graph) -> float:
    """Length of a shortest cycle; math.inf for forests."""
    best = math.inf
    for start in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if 2 * dist[u] >= best:
                break
            for w in bits(g.adj[u]):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


# -- named recognizers -------------------------------------------------------


def _complement_components(g: Graph) -> list[Graph]:
    co = g.complement()
    return [co.induced(c) for c in co.component_masks()]


def _member_named(name: str, g: Graph) -> bool:
    if name == "clique":
        return is_clique_graph(g)
    if name == "clique-or-e2":
        return is_clique_graph(g) or (g.n == 2 and g.edge_count() == 0)
    if name == "stable":
        return is_stable_graph(g)
    if name == "co-girth-5":
        return girth(g.complement()) >= 5
    if name == "stars-triangles-co":
        return all(is_star_graph(c) or (c.n == 3 and is_clique_graph(c))
                   for c in _complement_components(g))
    if name == "stars-cliques-co":
        return all(is_star_graph(c) or is_clique_graph(c)
                   for c in _complement_components(g))
    if name == "split-join-components-co":
        return all(_is_clique_stable_join(c) for c in _complement_components(g))
    if name == "cograph":
        return is_cograph(g)
    if name == "complete-multipartite":
        return all(is_clique_graph(c) for c in _complement_components(g))
    if name == "disjoint-cliques":
        return all(is_clique_graph(g.induced(c)) for c in g.component_masks())
    if name == "co-matching":
        co = g.complement()
        return all(row.bit_count() <= 1 for row in co.adj)
    if name == "clique-union-stable":
        comps = [g.induced(c) for c in g.component_masks()]
        if not all(is_clique_graph(c) for c in comps):
            return False
        return sum(1 for c in comps if c.n >= 2) <= 1
    if name == "split":
        return is_split_graph(g)
    if name == "bipartite":
        return is_bipartite_graph(g)
    if name == "co-bipartite":
        return is_bipartite_graph(g.complement())
    raise ValueError(f"unknown family name {name!r}")


def member(f: FamilySpec, g: Graph) -> bool:
    if f.patterns is not None:
        return not any(contains_induced(g, p) for p in f.patterns)
    return _member_named(f.name, g)


# -- forbidden bases ---------------------------------------------------------


def _subset_orbit_reps(m: int, gens) -> list[int]:
    """The least vertex mask of each orbit of subsets of {0..m-1} under the
    group the vertex permutations ``gens`` generate."""
    images = []
    for gamma in gens:
        image = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = s & -s
            image[s] = image[s ^ low] | 1 << gamma[low.bit_length() - 1]
        images.append(image)
    return [s for s, least in enumerate(_orbits(1 << m, images)) if least == s]


@lru_cache(maxsize=None)
def _unlabeled_up_to(nmax: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, n = 0..nmax,
    each level sorted by canonical rows.

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
    canonical search.  The search result of each kept class is carried to
    its representative, so that ``automorphism_count`` never searches it.
    """
    levels = [[_canonical_copy(_canon_search(Graph(0, ())))]]
    for n in range(1, nmax + 1):
        kept = []
        for p, pc in levels[-1]:
            pdeg = p.degrees()
            for nb in _subset_orbit_reps(n - 1, pc.gens):
                deg = [d + (nb >> i & 1) for i, d in enumerate(pdeg)]
                deg.append(nb.bit_count())
                if deg[-1] < max(deg):
                    continue
                rows = tuple(row | (nb >> i & 1) << (n - 1)
                             for i, row in enumerate(p.adj)) + (nb,)
                inv = [(deg[v], sorted(deg[u] for u in bits(rows[v])))
                       for v in range(n)]
                top = max(inv)
                if inv[-1] != top:
                    continue
                c = _canon_search(Graph(n, rows))
                u = min((v for v in range(n) if inv[v] == top),
                        key=c.lab.__getitem__)
                if u != n - 1:
                    orbit = _orbits(n, c.gens)
                    if orbit[u] != orbit[n - 1]:
                        continue
                kept.append(c)
        kept.sort(key=lambda c: c.rows)
        levels.append([_canonical_copy(c) for c in kept])
    return tuple(g for level in levels for g, _ in level)


@lru_cache(maxsize=None)
def named_forbidden_basis(name: str) -> tuple[Graph, ...]:
    """Minimal forbidden induced subgraphs of a named family.

    Computed by brute force over all graphs with <= 6 vertices: a graph is
    in the basis iff it is outside the family while all its one-vertex
    deletions are inside.  Basis consistency against the recognizers is
    re-checked exhaustively (n <= 7) in the test suite.
    """
    if name not in NAMED_FAMILIES:
        raise ValueError(f"unknown family name {name!r}")
    if name in _NO_FINITE_BASIS:
        raise NoFiniteBasisError(
            f"{name} has no finite forbidden-induced basis (odd cycles)")
    fam = FamilySpec.named(name)
    out = []
    for g in _unlabeled_up_to(_BASIS_SEARCH_MAX):
        if g.n == 0 or member(fam, g):
            continue
        full = g.vertex_mask()
        if all(member(fam, g.induced(full ^ (1 << v))) for v in range(g.n)):
            out.append(g)
    return tuple(sorted(out, key=canonical_key))


def basis_of(f: FamilySpec) -> tuple[Graph, ...]:
    if f.patterns is not None:
        return f.patterns
    return named_forbidden_basis(f.name)


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
    return (any(is_bipartite_graph(p) for p in b)
            and any(is_bipartite_graph(p.complement()) for p in b)
            and any(is_split_graph(p) for p in b))


# -- girth-5 statistics ------------------------------------------------------


def s_statistic(g: Graph) -> int:
    """Max size of a stable set no vertex sees twice; equivalently a max
    independent set of the distance-<=2 graph."""
    if g.n > 24:
        raise ValueError("s_statistic limited to n <= 24")
    if g.n == 0:
        return 0
    sq = []
    for v in range(g.n):
        reach = g.adj[v]
        for u in bits(g.adj[v]):
            reach |= g.adj[u]
        sq.append(reach & ~(1 << v))

    best = 0

    def rec(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        rec(candidates & ~sq[v] & ~(1 << v), size + 1)
        rec(candidates & ~(1 << v), size)

    rec(g.vertex_mask(), 0)
    return best


def heavy_degree_check(g: Graph) -> bool:
    """At most sqrt(n) vertices of degree > 3*sqrt(n)/2, with their degree
    sum at most 3n/2 (exact integer arithmetic)."""
    n = g.n
    heavy = [d for d in g.degrees() if 4 * d * d > 9 * n and d > 0]
    return len(heavy) ** 2 <= n and 2 * sum(heavy) <= 3 * n
