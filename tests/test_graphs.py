import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from wpnlab.families import _classes
from wpnlab.graphs import (
    Graph,
    Graph6Error,
    _canon_search,
    _orbits,
    _refine,
    automorphism_count,
    bits,
    canonical_form,
    canonical_key,
    clique,
    contains_induced,
    cycle,
    empty,
    emit_adjacency_text,
    emit_graph6,
    is_isomorphic,
    maximal_stable_sets,
    parse_adjacency_text,
    parse_graph6,
    path,
    star,
)


def random_graph(n, mask):
    """Graph on n vertices from an edge-mask integer."""
    rows = [0] * n
    e = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> e & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            e += 1
    return Graph(n, tuple(rows))


def representatives(n):
    """One graph per isomorphism class on n vertices, in the order class
    generation keeps them."""
    return [Graph._trusted(n, c.rows) for c in _classes(n)]


def classes_up_to(m):
    """One representative of every isomorphism class on at most m
    vertices, in the order class generation keeps them."""
    return [g for n in range(m + 1) for g in representatives(n)]


graphs_up_to_6 = st.integers(0, 6).flatmap(
    lambda n: st.builds(random_graph, st.just(n),
                        st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


def test_constructors():
    assert empty(4).edge_count() == 0
    assert clique(5).edge_count() == 10
    assert path(4).edge_count() == 3
    assert cycle(6).edge_count() == 6
    assert star(3).degrees() == [3, 1, 1, 1]
    assert sorted(cycle(5).degrees()) == [2] * 5


def test_invariant_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph(1, (2,))  # bit beyond range
    with pytest.raises(ValueError):
        cycle(2)


def test_induced_and_complement():
    g = cycle(6)
    assert g.induced(0b000111).adj == path(3).adj
    assert g.complement().complement().adj == g.adj
    co = g.complement()
    assert co.edge_count() == 15 - 6


def test_components():
    g = clique(3).disjoint_union(empty(2))
    comps = g.component_masks()
    assert sorted(m.bit_count() for m in comps) == [1, 1, 3]
    assert not g.is_connected()
    assert cycle(5).is_connected()


def _brute_maximal_stable_sets(adj, s):
    """Every subset of s that is stable and that each other vertex of s
    sees, by walking all submasks of s."""
    out = []
    t = s
    while True:
        if all(not adj[v] & t for v in bits(t)) and \
                all(adj[v] & t for v in bits(s & ~t)):
            out.append(t)
        if t == 0:
            return out
        t = (t - 1) & s


def test_maximal_stable_sets_match_brute_force():
    """Each maximal stable set once and nothing else: every labelled graph
    on <= 5 vertices, every class on 6 and 7 vertices and seeded random
    graphs on 8-12 vertices, on the full mask and on the empty mask, and
    on a random submask of each random graph."""
    cases = [random_graph(n, m) for n in range(6)
             for m in range(1 << n * (n - 1) // 2)]
    cases += representatives(6) + representatives(7)
    rng = random.Random(22)
    masks = []
    for _ in range(50):
        n = rng.randint(8, 12)
        g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
        cases.append(g)
        masks.append((g, rng.getrandbits(n)))
    masks += [(g, g.vertex_mask()) for g in cases] + [(g, 0) for g in cases]
    for g, s in masks:
        # the brute force lists each set once, so equal sorted lists also
        # rule out repeats
        assert sorted(maximal_stable_sets(g.adj, s)) == \
            sorted(_brute_maximal_stable_sets(g.adj, s)), (g, s)
    assert list(maximal_stable_sets((), 0)) == [0]


def test_contains_induced_basics():
    assert contains_induced(cycle(6), path(4))
    assert not contains_induced(cycle(6), clique(3))
    assert contains_induced(cycle(6), empty(3))
    assert not contains_induced(cycle(5), empty(3))
    # C6 contains itself but no C5
    assert contains_induced(cycle(6), cycle(6))
    assert not contains_induced(cycle(6), cycle(5))
    assert contains_induced(clique(4), empty(0))


@given(graphs_up_to_6, st.integers(0, 5), st.integers(0, 1 << 10 - 1))
@settings(max_examples=60, deadline=None)
def test_contains_induced_matches_subset_oracle(g, hn, hmask):
    hn = min(hn, g.n)
    h = random_graph(hn, hmask % (1 << max(1, hn * (hn - 1) // 2)))
    oracle = any(
        is_isomorphic(g.induced(sum(1 << v for v in combo)), h)
        for combo in itertools.combinations(range(g.n), h.n))
    assert contains_induced(g, h) == oracle


@given(graphs_up_to_6, st.permutations(list(range(6))))
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_relabeling_invariant(g, perm):
    relabeled = g.relabel(tuple(p for p in perm if p < g.n))
    assert canonical_key(relabeled) == canonical_key(g)
    assert is_isomorphic(relabeled, g)


def test_is_isomorphic_negative():
    assert not is_isomorphic(path(4), star(3))
    assert not is_isomorphic(cycle(6), clique(3).disjoint_union(clique(3)))


def test_automorphism_counts():
    assert automorphism_count(clique(5)) == 120
    assert automorphism_count(empty(4)) == 24
    assert automorphism_count(cycle(5)) == 10  # dihedral
    assert automorphism_count(cycle(6)) == 12
    assert automorphism_count(path(4)) == 2
    assert automorphism_count(star(4)) == 24


def _fixpoint_refine(g, colors):
    """Colour refinement iterated until a pass changes no colour: the
    reference for ``_refine``."""
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            nb = sorted(colors[u] for u in bits(g.adj[v]))
            sigs.append((colors[v], tuple(nb)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _reference_encode(g, colors):
    # colors is discrete: vertex v gets label colors[v]
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << colors[u]
        rows[colors[v]] = row
    return tuple(rows)


def _unpruned_canon_search(g):
    """The canonical search without automorphism pruning: every leaf of the
    individualisation-refinement tree is visited, and |Aut| is the number of
    leaves with the least encoding.  Reference for the pruned search; it
    uses its own refinement and encoding, not the module's."""
    n = g.n
    if n == 0:
        return (), 1
    e = g.edge_count()
    if e == 0 or e == n * (n - 1) // 2:
        return g.adj, math.factorial(n)
    best = [None]
    achievers = set()

    def rec(colors):
        colors = _fixpoint_refine(g, colors)
        cell_of = {}
        for v, c in enumerate(colors):
            cell_of.setdefault(c, []).append(v)
        target = next((cell_of[c] for c in sorted(cell_of)
                       if len(cell_of[c]) > 1), None)
        if target is None:
            enc = _reference_encode(g, colors)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                achievers.clear()
            if enc == best[0]:
                achievers.add(tuple(colors))
            return
        for v in target:
            child = [2 * c for c in colors]
            child[v] -= 1
            rec(child)

    rec([0] * n)
    return best[0], len(achievers)


def _random_graph_on(rng, n, p=None):
    p = rng.random() if p is None else p
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


def _symmetric_graphs():
    """Graphs with many automorphisms.  All but 3K2 + K1 are regular, so
    their root refinement does not split, and most are vertex-transitive."""
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)])
    wagner = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                              + [(i, i + 4) for i in range(4)])
    cube = Graph.from_edges(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3)
                                if v < v ^ 1 << b])
    prism = Graph.from_edges(12, [(i, (i + 1) % 6) for i in range(6)]
                             + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
                             + [(i, i + 6) for i in range(6)])
    k2 = clique(2)
    return [petersen, _complete_bipartite(3, 3), wagner, cube, prism,
            cycle(4).disjoint_union(cycle(4)),
            k2.disjoint_union(k2).disjoint_union(k2).disjoint_union(empty(1))]


def test_pruned_search_matches_unpruned_reference():
    rng = random.Random(20140601)
    graphs = []
    for g in classes_up_to(7) + _symmetric_graphs():
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(g.relabel(tuple(perm)))
    c12 = cycle(12)
    graphs += [c12.induced(s) for s in range(1 << 12)]
    graphs += [_random_graph_on(rng, rng.randint(8, 11), rng.choice((0.3, 0.5, 0.7)))
               for _ in range(50)]
    for g in graphs:
        c = _canon_search(g)
        assert (c.rows, c.aut) == _unpruned_canon_search(g), emit_graph6(g)
        assert g.relabel(c.lab).adj == c.rows
        assert all(g.relabel(gamma).adj == g.adj for gamma in c.gens)


def test_refine_matches_the_fixpoint_reference():
    """From ranked colourings and from the child form (2c, and 2c - 1 for
    the individualised vertex), ``_refine`` returns what refining until
    nothing changes returns."""
    rng = random.Random(1998)
    graphs = _symmetric_graphs() + [
        _random_graph_on(rng, rng.randint(1, 12)) for _ in range(300)]
    for g in graphs:
        nbrs = [bits(row) for row in g.adj]
        for _ in range(4):
            k = rng.randint(1, g.n)
            raw = [rng.randrange(k) for _ in range(g.n)]
            rank = {c: i for i, c in enumerate(sorted(set(raw)))}
            ranked = [rank[c] for c in raw]
            node = _fixpoint_refine(g, ranked)
            assert _refine(nbrs, ranked) == node
            for base in (ranked, node):
                for v in range(g.n):
                    child = [2 * c for c in base]
                    child[v] -= 1
                    assert _refine(nbrs, child) == _fixpoint_refine(g, child)


def test_orbits_are_least_points_of_the_generated_orbits():
    rng = random.Random(2015)
    for _ in range(300):
        n = rng.randint(1, 40)
        gens = []
        for _ in range(rng.randint(0, 3)):
            gamma = list(range(n))
            for _ in range(rng.randint(0, 3)):  # a few transpositions
                i, j = rng.randrange(n), rng.randrange(n)
                gamma[i], gamma[j] = gamma[j], gamma[i]
            gens.append(tuple(gamma))
        expected = []
        for v in range(n):
            orbit, frontier = {v}, [v]
            while frontier:
                u = frontier.pop()
                for gamma in gens:
                    if gamma[u] not in orbit:
                        orbit.add(gamma[u])
                        frontier.append(gamma[u])
            expected.append(min(orbit))
        assert _orbits(n, gens) == expected


def _pinned_search_inputs():
    rng = random.Random(2014)
    graphs = [_random_graph_on(rng, rng.randint(0, 14)) for _ in range(300)]
    graphs += [cycle(k) for k in range(3, 17)]
    graphs += [_complete_bipartite(a, b)
               for a in range(1, 12) for b in range(a, 13 - a)]
    return graphs


def test_canonical_search_is_pinned():
    """Rows and |Aut| of the search on a fixed list of graphs on up to 16
    vertices, beyond the classes that class generation pins."""
    text = "\n".join(f"{c.rows} {c.aut}"
                     for c in map(_canon_search, _pinned_search_inputs()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "208ab1463e130efd0c7d1d509376587127c2e25c123b1fb4a6e6c3c29b272d59"


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_automorphism_count_on_symmetric_graphs():
    start = time.process_time()
    assert automorphism_count(_complete_bipartite(6, 6)) == 1036800
    assert time.process_time() - start < 1.0
    assert automorphism_count(_complete_bipartite(5, 5)) == 28800
    k3 = clique(3)
    assert automorphism_count(
        k3.disjoint_union(k3).disjoint_union(k3).disjoint_union(k3)) == 31104
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)])
    assert automorphism_count(petersen) == 120


def test_canonical_form_idempotent():
    g = random_graph(5, 0b1010101)
    c = canonical_form(g)
    assert canonical_form(c).adj == c.adj


def test_graph6_known_values():
    assert emit_graph6(clique(3)) == "Bw"
    assert parse_graph6("Bw").adj == clique(3).adj
    assert emit_graph6(empty(0)) == "?"


@given(graphs_up_to_6)
@settings(max_examples=100, deadline=None)
def test_graph6_roundtrip(g):
    assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_graph6_errors():
    with pytest.raises(Graph6Error, match="MalformedHeader"):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="OutOfRangeByte"):
        parse_graph6("B\x7f")
    with pytest.raises(Graph6Error, match="TrailingBits"):
        parse_graph6("Bx")  # K3 with a nonzero padding bit


def test_adjacency_text_roundtrip():
    g = cycle(6)
    text = emit_adjacency_text(g)
    assert parse_adjacency_text(text).adj == g.adj
    assert parse_adjacency_text("n=3; edges: 0-1 1-2").adj == path(3).adj


# Arbitrary text, text over the graph6 alphabet, and text after "n=".
graph_texts = st.one_of(
    st.text(max_size=16),
    st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=128),
            max_size=12),
    st.text(max_size=16).map(lambda t: "n=" + t),
)


@given(graph_texts)
@example("n=1000000000")      # rejected before its rows are allocated
@example("n=-3")
@example("n=3; edges: 0-0")
@example("~~~~")
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_value_errors(text):
    for parse in (parse_graph6, parse_adjacency_text):
        try:
            g = parse(text)
        except ValueError:            # Graph6Error is a ValueError
            continue
        assert isinstance(g, Graph) and 0 <= g.n <= 64


def test_bits_iterator():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def _reference_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_matches_the_bit_loop_on_table_edges_and_wide_masks():
    rng = random.Random(18)
    wide = [rng.getrandbits(rng.randint(1, 64)) for _ in range(200)]
    edges = [0, (1 << 10) - 1, 1 << 10, (1 << 10) + 1]
    for mask in [*range(1 << 12), *edges, *wide]:
        got = bits(mask)
        assert type(got) is tuple and list(got) == _reference_bits(mask)
    assert bits(1 << 63) == (63,)
    assert bits((1 << 64) - 1) == tuple(range(64))
