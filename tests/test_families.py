import functools
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from wpnlab.families import (
    NAMED_FAMILIES,
    FamilySpec,
    NoFiniteBasisError,
    family_subset,
    heavy_degree_check,
    is_restricted,
    member,
    named_forbidden_basis,
    s_statistic,
)
from wpnlab.graphs import (
    bits,
    canonical_key,
    clique,
    cycle,
    emit_graph6,
    empty,
    parse_graph6,
    path,
    star,
)

from .test_graphs import classes_up_to, graphs_up_to_6, representatives

P3 = path(3)
COP3 = P3.complement()


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(name="clique", patterns=(clique(2),))
    with pytest.raises(ValueError):
        FamilySpec(name=None, patterns=None)
    with pytest.raises(ValueError):
        FamilySpec.named("no-such-family")


def test_forbidden_spec_dedups_isomorphic_patterns():
    f = FamilySpec.forbidden([path(3), path(3).relabel((2, 1, 0)), empty(3)])
    assert len(f.patterns) == 2


def test_membership_spot_checks():
    assert member(FamilySpec.named("clique"), clique(4))
    assert not member(FamilySpec.named("clique"), path(3))
    assert member(FamilySpec.named("stable"), empty(5))
    assert member(FamilySpec.named("co-girth-5"), cycle(5).complement())
    assert not member(FamilySpec.named("co-girth-5"), empty(3))
    assert member(FamilySpec.named("cograph"), clique(2).disjoint_union(clique(3)))
    assert not member(FamilySpec.named("cograph"), path(4))
    assert member(FamilySpec.named("split"), star(3))
    assert not member(FamilySpec.named("split"), cycle(4))
    assert member(FamilySpec.named("bipartite"), cycle(6))
    assert not member(FamilySpec.named("bipartite"), cycle(5))
    assert member(FamilySpec.named("co-bipartite"), cycle(6).complement())
    assert not member(FamilySpec.named("co-bipartite"), cycle(5).complement())
    assert member(FamilySpec.named("complete-multipartite"), cycle(4))
    assert not member(FamilySpec.named("complete-multipartite"), path(3).complement())
    assert member(FamilySpec.named("co-matching"), clique(4))
    assert member(FamilySpec.named("clique-union-stable"),
                  clique(3).disjoint_union(empty(2)))
    assert not member(FamilySpec.named("clique-union-stable"),
                      clique(3).disjoint_union(clique(2)))


def test_class_generation_is_pinned():
    """The graph6 list of every class up to n = 7, in order."""
    text = "\n".join(emit_graph6(g) for g in classes_up_to(7))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "090dfd76c396dffa8a91f283c90b9745c57546d9d95588a9a9fd9a19e684a317"


def test_class_generation_is_pinned_at_eight_vertices():
    """The graph6 list of the 12346 classes on 8 vertices, in order."""
    text = "\n".join(emit_graph6(g) for g in representatives(8))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f7c1124834c4739b248453a465316221b7345db90154b8d451cac1b1ff507db4"


def _fresh_reader(monkeypatch):
    """Replace the class reader by one that has built no level.  The
    reader reads the level below through the module, so the fresh one
    builds its own levels, and the process's levels return afterwards."""
    import wpnlab.families as fam

    monkeypatch.setattr(fam, "_classes", functools.lru_cache(fam._classes.__wrapped__))
    return fam._classes


def test_levels_are_generated_once(monkeypatch):
    import wpnlab.families as fam

    expected = [fam._classes(n) for n in range(8)]
    calls = []
    real = fam._canon_search
    monkeypatch.setattr(fam, "_canon_search", lambda g: calls.append(g) or real(g))
    classes = _fresh_reader(monkeypatch)
    assert classes(6) == expected[6]
    up_to_6 = len(calls)
    assert [classes(n) for n in range(7)] == expected[:7]
    assert len(calls) == up_to_6
    level = classes(7)
    assert level == expected[7] and classes(7) is level
    assert sum(math.factorial(7) // c.aut for c in level) == 1 << 21
    # n <= 6 then level 7 costs what one fresh n <= 7 run does
    up_to_7 = len(calls)
    calls.clear()
    assert _fresh_reader(monkeypatch)(7) == expected[7]
    assert len(calls) == up_to_7 > up_to_6


def test_class_levels_retain_few_bytes_per_class(monkeypatch):
    """Each class keeps its search result alone: no representative graph
    and no canonical-cache entry beside it."""
    import tracemalloc

    import wpnlab.graphs as gr

    classes = _fresh_reader(monkeypatch)
    gr._canon_cached.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = sum(len(classes(n)) for n in range(8))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert count == 1253
    assert retained <= 700 * count, retained / count


def test_membership_is_pinned():
    """One 0/1 membership string per named family over every class up to
    n = 7, and every finite named basis, as the structural recognizers
    gave them before they read vertex masks."""
    classes = classes_up_to(7)
    assert len(classes) == 1253
    text = "\n".join(name + ":" + "".join(
        "1" if member(FamilySpec.named(name), g) else "0" for g in classes)
        for name in NAMED_FAMILIES)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "5a2b1d7f442de9511952266d6f50a74fe11d363899d1b8700756952018d0f55d"
    bases = "".join(
        name + ":" + ",".join(emit_graph6(p) for p in named_forbidden_basis(name)) + "\n"
        for name in NAMED_FAMILIES if name not in ("bipartite", "co-bipartite"))
    assert hashlib.sha256(bases.encode()).hexdigest() == \
        "66116dcba70d9a4305f7aceacf25263b2d7054550e67443a88a2be95596c56d1"


def test_member_on_a_mask_equals_member_on_the_induced_subgraph():
    families = [FamilySpec.named(name) for name in NAMED_FAMILIES] + [
        FamilySpec.forbidden([P3]),
        FamilySpec.forbidden([path(4), cycle(4), empty(3)]),
    ]
    for g in classes_up_to(6):
        for mask in range(1 << g.n):
            sub = g.induced(mask)
            for f in families:
                assert member(f, g, mask) == member(f, sub), (f.label(), emit_graph6(g), mask)
    with pytest.raises(ValueError):
        member(FamilySpec.named("clique"), P3, 0b1000)


def test_representatives_are_pairwise_non_isomorphic():
    import networkx as nx

    buckets: dict = {}
    for g in classes_up_to(6):
        buckets.setdefault((g.n, tuple(sorted(g.degrees()))), []).append(g)
    for same_degrees in buckets.values():
        nxs = []
        for g in same_degrees:
            nxs.append(nx.empty_graph(g.n))
            nxs[-1].add_edges_from(g.edges())
        for i, a in enumerate(nxs):
            for b in nxs[i + 1:]:
                assert not nx.is_isomorphic(a, b)


@pytest.mark.parametrize("name", [n for n in NAMED_FAMILIES
                                  if n not in ("bipartite", "co-bipartite")])
def test_recognizer_equals_forbidden_basis(name):
    """The structural recognizer and the computed minimal forbidden set
    define the same family on every graph with <= 6 vertices."""
    fam = FamilySpec.named(name)
    patterns = named_forbidden_basis(name)
    via_basis = FamilySpec.forbidden(patterns)
    for g in classes_up_to(6):
        assert member(fam, g) == member(via_basis, g), emit_graph6(g)
    # minimality: every one-vertex deletion of a basis graph is a member
    for p in patterns:
        full = p.vertex_mask()
        assert not member(fam, p)
        for v in range(p.n):
            assert member(fam, p.induced(full ^ (1 << v)))


def _brute_force_basis(name: str) -> tuple:
    """Every graph on <= 6 vertices outside the family whose one-vertex
    deletions are all inside, in canonical_key order."""
    fam = FamilySpec.named(name)
    return tuple(sorted(
        (g for g in classes_up_to(6) if not member(fam, g)
         and all(member(fam, g, g.vertex_mask() ^ 1 << v) for v in range(g.n))),
        key=canonical_key))


@pytest.mark.parametrize("name", [n for n in NAMED_FAMILIES
                                  if n not in ("bipartite", "co-bipartite")])
def test_basis_table_equals_the_brute_force_basis(name):
    """The graph6 table of each named basis is what the search over every
    graph on <= 6 vertices finds, as the same canonical graphs in the
    same order."""
    assert named_forbidden_basis(name) == _brute_force_basis(name)


def test_known_bases():
    assert [emit_graph6(p) for p in named_forbidden_basis("clique")] == ["A?"]
    assert [emit_graph6(p) for p in named_forbidden_basis("stable")] == ["A_"]
    assert named_forbidden_basis("cograph") == (parse_graph6("CR"),)  # P4
    co_girth5 = set(named_forbidden_basis("co-girth-5"))
    assert co_girth5 == {empty(3), clique(2).disjoint_union(clique(2))}


def test_no_finite_basis_families():
    for name in ("bipartite", "co-bipartite"):
        with pytest.raises(NoFiniteBasisError):
            named_forbidden_basis(name)
    # membership still works structurally
    assert member(FamilySpec.named("bipartite"), cycle(8))
    assert not member(FamilySpec.named("bipartite"), cycle(7))


@given(graphs_up_to_6, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_membership_is_hereditary(g, v):
    for name in ("cograph", "split", "co-girth-5", "stars-cliques-co",
                 "split-join-components-co", "complete-multipartite"):
        if g.n == 0:
            continue
        sub = g.induced(g.vertex_mask() ^ (1 << (v % g.n)))
        if member(FamilySpec.named(name), g):
            assert member(FamilySpec.named(name), sub), name


def _subset_oracle(a, b, nmax=6):
    fa, fb = FamilySpec.named(a), FamilySpec.named(b)
    return all(member(fb, g) for g in classes_up_to(nmax) if member(fa, g))


@pytest.mark.parametrize("a,b,expect", [
    ("clique", "cograph", True),
    ("clique", "split", True),
    ("stable", "bipartite", None),  # bipartite has no finite basis
    ("disjoint-cliques", "cograph", True),
    ("cograph", "split", False),
    ("complete-multipartite", "cograph", True),
    ("co-matching", "complete-multipartite", True),
    ("split-join-components-co", "stars-cliques-co", False),
    ("clique", "stable", False),
])
def test_family_subset(a, b, expect):
    if expect is None:
        with pytest.raises(NoFiniteBasisError):
            family_subset(FamilySpec.named(a), FamilySpec.named(b))
        return
    assert family_subset(FamilySpec.named(a), FamilySpec.named(b)) == expect
    assert expect == _subset_oracle(a, b)


def test_is_restricted():
    # {K2} contains a bipartite and split graph but no co-bipartite?  K2 is
    # co-bipartite too, so the stable family IS restricted.
    assert is_restricted(FamilySpec.named("stable"))
    assert is_restricted(FamilySpec.named("clique"))
    assert is_restricted(FamilySpec.named("co-girth-5"))
    # forbidding only E3: E3 is bipartite and split but not co-bipartite?
    # complement(E3) = K3 is bipartite? no.  E3's complement is K3, which is
    # not bipartite, so {E3} misses a co-bipartite pattern.
    assert not is_restricted(FamilySpec.forbidden([empty(3)]))


def _s_oracle(g):
    best = 0
    for s in range(1 << g.n):
        vs = list(bits(s))
        if any(g.adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1:]):
            continue
        if any((g.adj[v] & s).bit_count() >= 2 for v in range(g.n)):
            continue
        best = max(best, s.bit_count())
    return best


def test_s_statistic_spot_values():
    assert s_statistic(cycle(5)) == 1
    assert s_statistic(empty(6)) == 6
    assert s_statistic(clique(4)) == 1
    assert s_statistic(star(5)) == 1
    assert s_statistic(cycle(6)) == 2


@given(graphs_up_to_6)
@settings(max_examples=80, deadline=None)
def test_s_statistic_matches_subset_oracle(g):
    assert s_statistic(g) == _s_oracle(g)


def test_s_statistic_matches_subset_oracle_on_every_small_class():
    for g in classes_up_to(7):
        assert s_statistic(g) == _s_oracle(g), g


def test_s_statistic_guard():
    with pytest.raises(ValueError):
        s_statistic(empty(25))


@given(graphs_up_to_6)
@settings(max_examples=60, deadline=None)
def test_heavy_degree_check_matches_float_form(g):
    n = g.n
    if n == 0:
        return
    heavy = [d for d in g.degrees() if d > 1.5 * math.sqrt(n)]
    expected = len(heavy) <= math.sqrt(n) and sum(heavy) <= 1.5 * n
    assert heavy_degree_check(g) == expected
