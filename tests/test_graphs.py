import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from wpnlab.families import _unlabeled_level
from wpnlab.graphs import (
    Graph,
    Graph6Error,
    _canon_search,
    _encode,
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


def classes_up_to(m):
    """One representative of every isomorphism class on at most m
    vertices, in the order class generation keeps them."""
    return [g for n in range(m + 1) for g, _ in _unlabeled_level(n)]


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


def _unpruned_canon_search(g):
    """The canonical search without automorphism pruning: every leaf of the
    individualisation-refinement tree is visited, and |Aut| is the number of
    leaves with the least encoding.  Reference for the pruned search."""
    n = g.n
    if n == 0:
        return (), 1
    e = g.edge_count()
    if e == 0 or e == n * (n - 1) // 2:
        return g.adj, math.factorial(n)
    best = [None]
    achievers = set()

    def rec(colors):
        colors = _refine(g, colors)
        cell_of = {}
        for v, c in enumerate(colors):
            cell_of.setdefault(c, []).append(v)
        target = next((cell_of[c] for c in sorted(cell_of)
                       if len(cell_of[c]) > 1), None)
        if target is None:
            enc = _encode(g, colors)
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


def test_pruned_search_matches_unpruned_reference():
    rng = random.Random(20140601)
    graphs = []
    for g in classes_up_to(7):
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(g.relabel(tuple(perm)))
    c12 = cycle(12)
    graphs += [c12.induced(s) for s in range(1 << 12)]
    for g in graphs:
        c = _canon_search(g)
        assert (c.rows, c.aut) == _unpruned_canon_search(g), emit_graph6(g)
        assert g.relabel(c.lab).adj == c.rows
        assert all(g.relabel(gamma).adj == g.adj for gamma in c.gens)


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
