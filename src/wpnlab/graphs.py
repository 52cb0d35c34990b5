"""Labeled simple graphs on at most 64 vertices, stored as per-vertex bitsets.

Everything downstream (family recognizers, witnessing-partition search, the
census) works on these immutable graphs.  Vertex sets are plain Python ints
used as bitmasks, so all set operations are single machine-word ops for the
graph sizes we care about (census n <= 9, `sequences` up to 16 vertices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _bit_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The set bit positions of every mask below 2^width, indexed by mask:
    the masks with top bit b are those below 2^b, each with b appended."""
    table = [()]
    for b in range(width):
        table += [t + (b,) for t in table]
    return tuple(table)


# Wide enough for every census mask (n <= 9); 1024 tuples.
_BIT_TABLE = _bit_table(10)
_BIT_TABLE_SIZE = len(_BIT_TABLE)


def bits(mask: int) -> tuple[int, ...]:
    """Return the set bit positions of a nonnegative mask as a tuple,
    lowest first: looked up for masks below 2^10, else built bit by bit."""
    if mask < _BIT_TABLE_SIZE:
        return _BIT_TABLE[mask]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Simple labeled graph: vertex count and a tuple of adjacency bitmasks.

    Bit j of adj[i] is set iff ij is an edge.  Invariants (symmetry, no
    loops, no bits at positions >= n) are enforced at construction.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex range")
            if row >> i & 1:
                raise ValueError(f"loop at vertex {i}")
        for i in range(self.n):
            for j in bits(self.adj[i]):
                if not self.adj[j] >> i & 1:
                    raise ValueError(f"asymmetric adjacency at {i},{j}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if not 0 <= n <= MAX_VERTICES:  # before the rows are allocated
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def _trusted(n: int, adj: tuple[int, ...]) -> "Graph":
        """Internal constructor for enumerators whose rows are valid by
        construction: it skips the __post_init__ checks.  Input from outside
        goes through Graph(...), from_edges or parse_graph6.  The fields
        are set as the dataclass sets them: writing to ``__dict__`` would
        make every later read of ``g.adj`` about three times slower."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self.adj[i]) if i < j]

    # -- core operations ---------------------------------------------------

    def complement(self) -> "Graph":
        full = self.vertex_mask()
        return Graph(self.n, tuple((full ^ row ^ (1 << i)) & full
                                   for i, row in enumerate(self.adj)))

    def induced(self, s: int) -> "Graph":
        """Induced subgraph on the vertex bitmask ``s``, relabeled in
        increasing original order."""
        if s & ~self.vertex_mask():
            raise ValueError("vertex set outside graph range")
        verts = bits(s)
        pos = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for u in bits(self.adj[v] & s):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph(len(verts), tuple(rows))

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Relabeled copy where old vertex v becomes perm[v]."""
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return Graph(self.n, tuple(rows))

    def disjoint_union(self, other: "Graph") -> "Graph":
        rows = list(self.adj) + [row << self.n for row in other.adj]
        return Graph(self.n + other.n, tuple(rows))

    # -- connectivity ------------------------------------------------------

    def component_masks(self) -> list[int]:
        return mask_components(self.adj, self.vertex_mask())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1


def mask_components(adj, s: int) -> list[int]:
    """Vertex masks of the components of the subgraph that the rows ``adj``
    induce on the mask ``s``, by least vertex."""
    comps = []
    while s:
        comp = frontier = s & -s
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & s & ~comp
            comp |= frontier
        comps.append(comp)
        s ^= comp
    return comps


def maximal_stable_sets(adj, s: int):
    """Yield every maximal stable set of the subgraph that the rows ``adj``
    induce on the mask ``s`` once: Bron-Kerbosch (Bron & Kerbosch, CACM 16,
    1973) on the non-adjacency graph, pivoting on a vertex of p | x with
    the most non-neighbours in p.  s = 0 yields 0."""
    non = [s & ~a & ~(1 << v) for v, a in enumerate(adj)]

    def rec(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = -1
        for u in bits(pivot_pool):
            k = (p & non[u]).bit_count()
            if k > best:
                best, pivot = k, u
        for v in bits(p & ~non[pivot]):
            yield from rec(r | (1 << v), p & non[v], x & non[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from rec(0, s, 0)


# -- standard graphs --------------------------------------------------------


def empty(k: int) -> Graph:
    if k < 0:
        raise ValueError("negative vertex count")
    return Graph(k, (0,) * k)


def clique(k: int) -> Graph:
    if k < 0:
        raise ValueError("negative vertex count")
    full = (1 << k) - 1
    return Graph(k, tuple(full ^ (1 << i) for i in range(k)))


def path(k: int) -> Graph:
    if k < 0:
        raise ValueError("negative vertex count")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}; vertex 0 is the center.  star(0) is K1."""
    if leaves < 0:
        raise ValueError("negative leaf count")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# -- induced subgraph containment and isomorphism ---------------------------


def contains_induced(g: Graph, h: Graph, within: int | None = None) -> bool:
    """True iff some vertex subset of g (of the mask ``within``, if given)
    induces a copy of h.

    Backtracking injective map; pattern vertices ordered by decreasing
    degree (ties by index) so dense patterns prune early.
    """
    if h.n == 0:
        return True
    hosts = range(g.n) if within is None else bits(within)
    if h.n > len(hosts):
        return False
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    hadj = h.adj
    gadj = g.adj
    image = [0] * h.n  # image[i] = g-vertex for pattern vertex order[i]

    def rec(i: int, used: int) -> bool:
        if i == h.n:
            return True
        pv = order[i]
        want = hadj[pv]
        for gv in hosts:
            if used >> gv & 1:
                continue
            ok = True
            for j in range(i):
                if (want >> order[j] & 1) != (gadj[gv] >> image[j] & 1):
                    ok = False
                    break
            if ok:
                image[i] = gv
                if rec(i + 1, used | 1 << gv):
                    return True
        return False

    return rec(0, 0)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g).adj == canonical_form(h).adj


# -- canonical form via refinement + individualization -----------------------


def _refine(nbrs, colors: list[int]) -> list[int]:
    """The coarsest equitable colouring finer than ``colors``, ranked
    0..k-1: colour refinement on the graph whose neighbour tuples are
    ``nbrs``.  Each pass gives a vertex the rank of (its colour, the sorted
    colours of its neighbours), so a pass only splits cells.  A pass that
    leaves the number of cells unchanged leaves the partition unchanged, so
    the partition is equitable and a further pass would return the same
    ranked colouring; nor does a further pass change a discrete colouring.
    So the loop returns at the first such pass, and a discrete input is
    ranked directly, with no pass."""
    n = len(colors)
    cells = len(set(colors))
    if cells == n:
        ranking = {c: i for i, c in enumerate(sorted(colors))}
        return [ranking[c] for c in colors]
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in nb])))
                for c, nb in zip(colors, nbrs)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
        if len(ranking) == cells or len(ranking) == n:
            return colors
        cells = len(ranking)


def _encode(nbrs, colors: list[int]) -> tuple[int, ...]:
    # colors is discrete: vertex v gets label colors[v]
    rows = [0] * len(colors)
    for v, nb in enumerate(nbrs):
        row = 0
        for u in nb:
            row |= 1 << colors[u]
        rows[colors[v]] = row
    return tuple(rows)


class Canon(NamedTuple):
    """What the canonical search learns about one labelled graph."""

    rows: tuple[int, ...]               # adjacency rows of the canonical form
    aut: int                            # |Aut(g)|
    gens: tuple[tuple[int, ...], ...]   # generators of Aut(g): v goes to gen[v]
    lab: tuple[int, ...]                # canonical labelling: v becomes lab[v]


# The identity labelling of each vertex count, shared by every search
# result whose graph is its own canonical form.
_IDENTITY = tuple(tuple(range(n)) for n in range(MAX_VERTICES + 1))


def _orbits(n: int, gens) -> list[int]:
    """Least point of each point's orbit under the group that the
    permutations ``gens`` of range(n) generate.  A union-find forest whose
    links always point to a smaller point, so each root is its tree's least
    point, and one pass in increasing order resolves every point."""
    root = list(range(n))
    for gamma in gens:
        for v, a in enumerate(gamma):
            if a == v:
                continue
            b = v
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
    for v in range(n):
        root[v] = root[root[v]]
    return root


def _fixing(gens, path) -> list[tuple[int, ...]]:
    return [gamma for gamma in gens if all(gamma[v] == v for v in path)]


def _canon_search(g: Graph) -> Canon:
    """Canonical rows, |Aut(g)|, generators of Aut(g) and a canonical
    labelling, by individualisation and refinement with automorphism
    pruning (McKay & Piperno, *Practical graph isomorphism II*, J. Symbolic
    Comput. 60, 2014).

    A node of the search tree is an equitable colouring from ``_refine``;
    its children individualise, in vertex order, each vertex of its first
    non-singleton colour cell.  The root refines the degree ranks, which
    is exactly what a first pass from the one-cell colouring gives.  The
    canonical rows are the least ``_encode`` over the leaves.  A leaf whose
    encoding equals the first leaf's or the current best one's gives an
    automorphism, and the search returns to the node where the two leaves'
    paths part.  A child is skipped when an automorphism found so far that
    fixes the node's path maps it to a sibling already searched.  Either
    way the skipped subtree is the image of a searched one under an
    automorphism, so it holds no smaller leaf.  By orbit-stabiliser, |Aut|
    is the product along the first path of the orbit size of each level's
    first child under the automorphisms found that fix the path above it;
    once none fixes the path, every later factor is 1.
    """
    n = g.n
    ident = _IDENTITY[n]
    e = g.edge_count()
    if n <= 1 or e == 0 or e == n * (n - 1) // 2:
        gens = ()
        if n >= 2:  # Aut is S_n, generated by a swap and an n-cycle
            gens = ((1, 0) + ident[2:], ident[1:] + (0,))[:n - 1]
        return Canon(g.adj, math.factorial(n), gens, ident)

    nbrs = [bits(row) for row in g.adj]
    gens: list[tuple[int, ...]] = []
    path: list[int] = []
    first = best = None   # (encoding, leaf colouring, path) of a leaf

    def parting(other: list[int]) -> int:
        d = 0
        while path[d] == other[d]:
            d += 1
        return d

    def rec(colors: list[int]) -> int:
        """Search below the node; return the depth to resume at."""
        nonlocal first, best
        colors = _refine(nbrs, colors)
        depth = len(path)
        k = max(colors) + 1
        if k == n:
            enc = _encode(nbrs, colors)
            if first is None:
                first = best = (enc, colors, path[:])
                return depth
            for ref_enc, ref_colors, ref_path in (first, best):
                if enc == ref_enc:
                    at = [0] * n
                    for v, c in enumerate(colors):
                        at[c] = v
                    gens.append(tuple(at[c] for c in ref_colors))
                    return parting(ref_path)
            if enc < best[0]:
                best = (enc, colors, path[:])
            return depth
        cells: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        target = next(cell for cell in cells if len(cell) > 1)
        searched: list[int] = []
        orbit, known = ident, 0
        for v in target:
            if searched:
                if known != len(gens):
                    orbit, known = _orbits(n, _fixing(gens, path)), len(gens)
                if any(orbit[v] == orbit[w] for w in searched):
                    continue
            searched.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            path.append(v)
            back = rec(child)
            path.pop()
            if back < depth:
                return back
        return depth

    degs = [len(nb) for nb in nbrs]
    ranking = {d: i for i, d in enumerate(sorted(set(degs)))}
    rec([ranking[d] for d in degs])
    aut = 1
    fixing = gens
    for v in first[2]:
        if not fixing:
            break
        orbit = _orbits(n, fixing)
        aut *= orbit.count(orbit[v])
        fixing = [gamma for gamma in fixing if gamma[v] == v]
    return Canon(best[0], aut, tuple(gens), tuple(best[1]))


def _canonical_copy(c: Canon) -> Canon:
    """The search result of the canonical form that ``c`` describes: the
    same rows and |Aut|, the generators carried over by the labelling, and
    the identity as its labelling.  The rows are validated here, once."""
    n = len(c.rows)
    Graph(n, c.rows)  # raises on invalid rows
    gens = []
    for gamma in c.gens:
        image = [0] * n
        for v, u in enumerate(gamma):
            image[c.lab[v]] = c.lab[u]
        gens.append(tuple(image))
    return Canon(c.rows, c.aut, tuple(gens), _IDENTITY[n])


@lru_cache(maxsize=1 << 16)
def _canon_cached(n: int, adj: tuple[int, ...]) -> Canon:
    """``_canon_search`` through a least-recently-used cache."""
    return _canon_search(Graph(n, adj))


def canonical_form(g: Graph) -> Graph:
    return Graph(g.n, _canon_cached(g.n, g.adj).rows)


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    return (g.n, _canon_cached(g.n, g.adj).rows)


def automorphism_count(g: Graph) -> int:
    return _canon_cached(g.n, g.adj).aut


# -- graph6 ------------------------------------------------------------------


def emit_graph6(g: Graph) -> str:
    if g.n <= 62:
        header = chr(g.n + 63)
    else:
        header = chr(126) + "".join(
            chr(((g.n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    bitstream = []
    for j in range(g.n):
        for i in range(j):
            bitstream.append(g.adj[i] >> j & 1)
    while len(bitstream) % 6:
        bitstream.append(0)
    body = []
    for k in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[k:k + 6]:
            val = val << 1 | b
        body.append(chr(val + 63))
    return header + "".join(body)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("MalformedHeader: empty graph6 string")
    data = [ord(c) for c in s]
    for c in data:
        if not 63 <= c <= 126:
            raise Graph6Error(f"OutOfRangeByte: byte {c} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("MalformedHeader: 36-bit vertex counts unsupported (n <= 64)")
        if len(data) < 4:
            raise Graph6Error("MalformedHeader: truncated long-form vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"MalformedHeader: {n} vertices exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"MalformedHeader: body length {len(body)} != {need} for n={n}")
    stream = []
    for c in body:
        v = c - 63
        stream.extend((v >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(stream[nbits:]):
        raise Graph6Error("TrailingBits: padding bits past the edge data are nonzero")
    rows = [0] * n
    idx = 0
    for j in range(n):
        for i in range(j):
            if stream[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


# -- human-readable adjacency text -------------------------------------------


def emit_adjacency_text(g: Graph) -> str:
    edges = " ".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n}; edges: {edges}".rstrip()


def parse_adjacency_text(text: str) -> Graph:
    s = text.strip()
    if not s.startswith("n="):
        raise ValueError("adjacency text must start with 'n='")
    head, _, rest = s.partition(";")
    n = int(head[2:])
    rest = rest.strip()
    edges = []
    if rest:
        if not rest.startswith("edges:"):
            raise ValueError("expected 'edges:' section")
        for tok in rest[len("edges:"):].split():
            u, _, v = tok.partition("-")
            edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)
