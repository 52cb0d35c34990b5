import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from wpnlab.families import FamilySpec, member
from wpnlab.graphs import (
    clique,
    contains_induced,
    cycle,
    emit_graph6,
    empty,
    is_isomorphic,
    path,
)
from wpnlab.witnessing import (
    WitnessSequence,
    find_certificate,
    is_really_canonical,
    partition_into_parts,
    theorem_cycle,
    theorem_sequence,
    verify_cycle_partition_claims,
    wpn,
)

from .test_graphs import classes_up_to, graphs_up_to_6, random_graph

STABLE = FamilySpec.named("stable")
CLIQUE = FamilySpec.named("clique")
COGIRTH5 = FamilySpec.named("co-girth-5")
CLUSTER = FamilySpec.forbidden([path(3)])
TWO_K3 = clique(3).disjoint_union(clique(3))


def _is_certificate(g, seq, masks):
    """One mask per slot, pairwise disjoint, covering V(g), with each part
    inside its slot's family."""
    if len(masks) != len(seq):
        return False
    seen = 0
    for m in masks:
        if m & seen:
            return False
        seen |= m
    return seen == g.vertex_mask() and all(
        member(f, g, m) for f, m in zip(seq.parts, masks))


def _clique_stable_partition(h, c, s):
    return find_certificate(h, WitnessSequence((CLIQUE,) * c + (STABLE,) * s))


def test_clique_stable_partition_spot_values():
    assert _clique_stable_partition(cycle(6), 0, 2)
    assert not _clique_stable_partition(cycle(6), 2, 0)
    assert not _clique_stable_partition(cycle(4), 1, 1)
    assert _clique_stable_partition(cycle(6), 3, 0)
    # empty parts allowed: one clique suffices for K4 even with s=3
    assert _clique_stable_partition(clique(4), 1, 3)


def _wpn_oracle(h):
    """Largest c + s with no partition of V(h) into c cliques and s stable
    sets, by dynamic programming over set partitions of vertex masks."""
    kind = [(member(CLIQUE, h, m), member(STABLE, h, m)) for m in range(1 << h.n)]

    @functools.lru_cache(maxsize=None)
    def cover(mask, c, s):
        if not mask:
            return True
        low = mask & -mask
        rest = sub = mask ^ low
        while True:
            block = sub | low
            if (c and kind[block][0] and cover(mask ^ block, c - 1, s)) or \
                    (s and kind[block][1] and cover(mask ^ block, c, s - 1)):
                return True
            if not sub:
                return False
            sub = (sub - 1) & rest

    full = (1 << h.n) - 1
    return max((c + s for c in range(h.n + 1) for s in range(h.n + 1 - c)
                if not cover(full, c, s)), default=0)


def test_wpn_matches_partition_oracle():
    """The staircase walk equals the largest failing (c, s) pair over every
    class with n <= 6 and the cycles C3..C9."""
    for g in classes_up_to(6) + [cycle(k) for k in range(3, 10)]:
        assert wpn(g) == _wpn_oracle(g), emit_graph6(g)


def test_wpn_values():
    assert wpn(empty(1)) == 0
    assert wpn(empty(0)) == 0
    assert [wpn(cycle(k)) for k in range(3, 13)] == [2, 2, 2, 2, 3, 3, 4, 4, 5, 5]
    assert wpn(cycle(7)) == 3


@given(graphs_up_to_6)
@settings(max_examples=40, deadline=None)
def test_wpn_complement_invariant(g):
    assert wpn(g) == wpn(g.complement())


def test_is_witnessing_sequence_spot_values():
    assert find_certificate(cycle(6), WitnessSequence((STABLE, COGIRTH5))) is None
    assert find_certificate(cycle(3), WitnessSequence((STABLE, STABLE))) is None
    assert find_certificate(cycle(4), WitnessSequence((STABLE, STABLE))) is not None
    # C_{2l} partitions into l cliques (edges), so l all-clique families
    # never witness
    for l in range(2, 7):
        assert find_certificate(
            cycle(2 * l), WitnessSequence((CLIQUE,) * l)) is not None


def test_theorem_sequences_witness_their_cycles():
    for theorem, n in (("c6", 6), ("c8", 8), ("c10", 10), ("c2l:6", 12),
                       ("c2l:7", 14)):
        seq = theorem_sequence(theorem)
        assert is_really_canonical(seq)
        assert find_certificate(cycle(n), seq) is None, theorem


def test_theorem_preconditions():
    # each id goes into a census config hash, so "c2l:6" is the only
    # spelling of l = 6
    for bad in ("c2l:5", "c2l:3", "c2l:", "c12", "c2l:x", "c2l: 6", "c2l:+6",
                "c2l:0_6", "c2l:\uff16", "c2l:06", "c2l:6\n", "c2l:0", " c6"):
        for parse in (theorem_sequence, theorem_cycle):
            with pytest.raises(ValueError):
                parse(bad)
    assert theorem_cycle("c2l:6") == cycle(12)
    assert len(theorem_sequence("c2l:7")) == 6


def test_is_really_canonical():
    assert is_really_canonical(WitnessSequence((STABLE, COGIRTH5)))
    assert not is_really_canonical(
        WitnessSequence((FamilySpec.forbidden([clique(2), empty(2)]),)))
    assert is_really_canonical(WitnessSequence((CLIQUE, STABLE, CLIQUE)))


def test_find_certificate_spot_values():
    seq = WitnessSequence((STABLE, COGIRTH5))
    assert find_certificate(TWO_K3, seq) is None
    cert = find_certificate(cycle(5), seq)
    assert cert is not None and _is_certificate(cycle(5), seq, cert)
    cert = find_certificate(empty(5), seq)
    assert cert is not None and _is_certificate(empty(5), seq, cert)
    assert find_certificate(empty(0), seq) == (0, 0)


def test_theorem_certifier():
    assert find_certificate(cycle(6), theorem_sequence("c6")) is None
    assert find_certificate(TWO_K3, theorem_sequence("c6")) is None
    cert = find_certificate(clique(7), theorem_sequence("c8"))
    assert cert is not None and _is_certificate(
        clique(7), theorem_sequence("c8"), cert)
    with pytest.raises(ValueError):
        theorem_sequence("c2l:4")


@given(graphs_up_to_6)
@settings(max_examples=40, deadline=None)
def test_certificates_verify_and_imply_hfreeness(g):
    """Soundness: a certificate against a witnessing sequence for C6 means
    the graph is C6-free."""
    seq = theorem_sequence("c6")
    cert = find_certificate(g, seq)
    if cert is not None:
        assert _is_certificate(g, seq, cert)
        assert not contains_induced(g, cycle(6))


def test_partition_into_parts():
    g = cycle(6)
    masks = partition_into_parts(g, [path(3), path(3)])
    assert masks is not None
    assert masks[0] | masks[1] == g.vertex_mask()
    assert is_isomorphic(g.induced(masks[0]), path(3))
    assert partition_into_parts(g, [clique(2)] * 2) is None  # wrong size
    assert partition_into_parts(g, [clique(3), empty(3)]) is None
    # interchangeable-part symmetry must not lose solutions: the E2 part
    # may not contain vertex 0 in any solution here
    masks = partition_into_parts(
        cycle(10), [path(3), path(3), clique(2), empty(2)])
    assert masks is not None


@pytest.mark.parametrize("l", [3, 4, 5, 6, 7])
def test_verify_cycle_partition_claims(l):
    results = verify_cycle_partition_claims(l)
    for r in results:
        assert r.found == r.expected_found, (l, r.item, r.parameters)
        if r.found:
            g = cycle(2 * l)
            total = 0
            for m in r.witness:
                total |= m
            assert total == g.vertex_mask()


@given(graphs_up_to_6, st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_witnessing_monotone_in_forbidden_sets(g, seed_bits):
    """Adding patterns to a forbidden basis never destroys witnessing."""
    base = FamilySpec.forbidden([path(3)])
    bigger = FamilySpec.forbidden([path(3), empty(3) if seed_bits % 2
                                   else clique(2).disjoint_union(clique(2))])
    seq_small = WitnessSequence((base, STABLE))
    seq_big = WitnessSequence((bigger, STABLE))
    if find_certificate(g, seq_small) is None:
        assert find_certificate(g, seq_big) is None


graphs_up_to_7 = st.integers(0, 7).flatmap(
    lambda n: st.builds(random_graph, st.just(n),
                        st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))

# sequences that repeat a family in two or more slots, twins adjacent or not
# in branching order
REPEATED_FAMILY_SEQUENCES = [
    theorem_sequence("c8"),
    theorem_sequence("c10"),
    WitnessSequence((STABLE, STABLE, CLIQUE, CLIQUE)),
    WitnessSequence((CLIQUE, STABLE, CLIQUE, STABLE, STABLE)),
    WitnessSequence((CLUSTER, STABLE, CLUSTER)),
]


def _unpruned_certificate(g, seq):
    """Reference search: find_certificate's slot order, no twin pruning."""
    k = len(seq)
    order = sorted(range(k), key=lambda i: (
        seq.parts[i].name != "clique", i))
    masks = [0] * k

    def rec(v):
        if v == g.n:
            return True
        for i in order:
            m = masks[i] | 1 << v
            if member(seq.parts[i], g.induced(m)):
                masks[i] = m
                if rec(v + 1):
                    return True
                masks[i] = m ^ 1 << v
        return False

    if any(not member(f, g.induced(0)) for f in seq.parts) or not rec(0):
        return None
    return tuple(masks)


@pytest.mark.parametrize("seq", REPEATED_FAMILY_SEQUENCES,
                         ids=lambda s: "+".join(f.label() for f in s.parts))
@given(g=graphs_up_to_7)
@example(g=cycle(6))
@example(g=TWO_K3.complement())   # K3,3
@example(g=empty(6))
@example(g=clique(6))
@example(g=TWO_K3)
@example(g=cycle(5).disjoint_union(empty(1)))
@settings(max_examples=25, deadline=None)
def test_find_certificate_matches_brute_force_and_unpruned_search(seq, g):
    k = len(seq)
    ok = [[member(f, g.induced(m)) for m in range(1 << g.n)] for f in seq.parts]

    def valid(assignment):
        masks = [0] * k
        for v, i in enumerate(assignment):
            masks[i] |= 1 << v
        return all(ok[i][m] for i, m in enumerate(masks))

    exists = any(valid(a) for a in itertools.product(range(k), repeat=g.n))
    cert = find_certificate(g, seq)
    assert (cert is not None) == exists
    assert (find_certificate(g, seq) is None) == (not exists)
    if cert is not None:
        assert _is_certificate(g, seq, cert)
        assert cert == _unpruned_certificate(g, seq)
    else:
        assert _unpruned_certificate(g, seq) is None
