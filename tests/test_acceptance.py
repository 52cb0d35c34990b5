"""Acceptance gate: one test per headline criterion.

Each test is self-contained and named for the criterion it gates, so the
verbose pytest report reads as a checklist.  Expensive intermediates
(unlabeled class lists, censuses) are cached at module scope and shared.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest
import scipy.stats

from wpnlab.census import (
    canonical_json,
    census,
    girth5_census,
    _write_manifest,
)
from wpnlab.counting import (
    UniformPartitionSampler,
    bell,
    c2l_lower_bound,
    f_star,
    growth_bounds_hold,
    iter_set_partitions,
    labeled_cograph_count,
)
from wpnlab.families import FamilySpec, member, s_statistic
from wpnlab.graphs import clique, cycle
from wpnlab.sequences import classify_sequence, enumerate_really_canonical_sequences
from wpnlab.families import is_restricted
from wpnlab.witnessing import (
    WitnessSequence,
    find_certificate,
    theorem_sequence,
    verify_cycle_partition_claims,
    wpn,
)

from .test_census import _nx_girth, graph_from_edge_mask
from .test_families import _s_oracle
from .test_graphs import representatives

CLIQUE = FamilySpec.named("clique")


@lru_cache(maxsize=None)
def _c6_census(n: int, mode: str):
    return census(n, cycle(6), "c6", mode=mode)


def test_criterion_01_wpn_table():
    start = time.monotonic()
    values = [wpn(cycle(k)) for k in range(3, 17)]
    assert values == [2, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
    # closed form: wpn(C_{2l-1}) = l - 1, wpn(C_{2l}) = l - 1 for 2l < 10,
    # and wpn(C_{2l}) = l - 1 still: values follow ceil(k/2) - 1 for k >= 6;
    # C16 is the longest cycle that sequences takes
    for k in range(6, 17):
        assert values[k - 3] == (k + 1) // 2 - 1
    assert time.monotonic() - start < 10


def test_criterion_02_theorem_sequences_witness():
    start = time.monotonic()
    for theorem, n in (("c6", 6), ("c8", 8), ("c10", 10), ("c2l:6", 12)):
        assert find_certificate(cycle(n), theorem_sequence(theorem)) is None, theorem
    # every even cycle C_{2l} partitions into l cliques (its l disjoint
    # edges), so l all-clique families never witness
    for l in (2, 3, 4, 5, 6):
        assert find_certificate(cycle(2 * l),
                                WitnessSequence((CLIQUE,) * l)) is not None
    assert time.monotonic() - start < 60


def test_criterion_03_enumeration_classifies_with_no_match_gap():
    for n, k in ((6, 2), (8, 3), (10, 4), (12, 5)):
        g = cycle(n)
        seqs = enumerate_really_canonical_sequences(g, k)
        assert seqs, (n, k)
        for seq in seqs:
            label = classify_sequence(g, seq)
            assert label in ("case1", "case2", "case3", "case4"), (n, label)
            for fam in seq.parts:
                assert is_restricted(fam), (n, fam.label())


def test_criterion_04_cycle_partition_claims_l6_l7():
    start = time.monotonic()
    for l in (6, 7):
        for r in verify_cycle_partition_claims(l):
            assert r.found == r.expected_found, (l, r.item, r.parameters)
    assert time.monotonic() - start < 300


def test_criterion_05_counting_exactness():
    for n in range(11):
        assert bell(n) == sum(1 for _ in iter_set_partitions(n))
    component_families = {1: "stars-triangles-co", 2: "stars-cliques-co",
                          3: "split-join-components-co"}
    for i, name in component_families.items():
        fam = FamilySpec.named(name)
        for n in range(7):
            oracle = sum(1 for mask in range(1 << (n * (n - 1) // 2))
                         if member(fam, graph_from_edge_mask(n, mask)))
            assert f_star(i, n) == oracle, (i, n)
    assert f_star(1, 4) == 30 and f_star(3, 4) == 37
    cograph = FamilySpec.named("cograph")
    for n in range(7):
        oracle = sum(1 for mask in range(1 << (n * (n - 1) // 2))
                     if member(cograph, graph_from_edge_mask(n, mask)))
        assert labeled_cograph_count(n) == oracle
    assert labeled_cograph_count(3) == 8 and labeled_cograph_count(4) == 52


def test_criterion_06_growth_inequalities_desk_scale():
    start = time.monotonic()
    for i in (1, 2, 3):
        prev = None
        for n in range(8, 201):
            fn = f_star(i, n)
            assert bell(n) <= fn <= (1 << n) * bell(n), (i, n)
            if prev is not None:
                assert fn >= prev, (i, n)
            prev = fn
            assert growth_bounds_hold(i, n), (i, n)
    for n in range(1, 101):
        assert labeled_cograph_count(n) < (2 * n) ** (2 * n)
    assert time.monotonic() - start < 60


def test_criterion_07_census_ground_truths():
    assert _c6_census(6, "labeled").hfree == 32708 == (1 << 15) - 60
    for n in range(3, 8):
        lab = _c6_census(n, "labeled")
        unl = _c6_census(n, "unlabeled")
        assert (lab.total, lab.hfree, lab.certifiable) == \
            (unl.total, unl.hfree, unl.certifiable), n
    c8 = census(8, cycle(8), "c8", mode="unlabeled")
    assert c8.total == 1 << 28
    assert c2l_lower_bound(8, 4).le_int(c8.hfree)


def test_criterion_08_certifier_sanity_and_fraction_range():
    assert find_certificate(cycle(6), theorem_sequence("c6")) is None
    two_k3 = clique(3).disjoint_union(clique(3))
    assert find_certificate(two_k3, theorem_sequence("c6")) is None
    for n in (6, 7):
        rep = _c6_census(n, "unlabeled")
        frac = rep.certifiable_fraction()
        assert Fraction(0) < frac < Fraction(1), n


def test_criterion_08b_certifiable_fraction_trend_gate():
    """Failing-soft trend gate: fractions at n = 5..8 should be
    nondecreasing; a violation is logged as data (xfail), not as a
    correctness failure."""
    fractions = [
        _c6_census(n, "unlabeled").certifiable_fraction() for n in (5, 6, 7, 8)
    ]
    if any(b < a for a, b in zip(fractions, fractions[1:])):
        pytest.xfail("trend gate violated: certifiable fractions over "
                     f"n=5..8 are {[str(f) for f in fractions]} (decreasing)")


def test_criterion_09_girth5_heavy_degree_and_s_statistic():
    for n in range(1, 9):
        rep = girth5_census(n, mode="unlabeled")
        assert rep.heavy_check_passed == rep.graphs, n
    assert s_statistic(cycle(5)) == 1
    for n in range(1, 9):
        for g in representatives(n):
            if _nx_girth(g) < 5:
                continue
            assert s_statistic(g) == _s_oracle(g)


def test_criterion_10_sampler_uniformity_and_mean():
    index = {p: i for i, p in enumerate(iter_set_partitions(6))}
    assert len(index) == 203
    sampler = UniformPartitionSampler(6, 20260823)
    counts = [0] * 203
    n_samples = 1_000_000
    for _ in range(n_samples):
        counts[index[sampler.sample().blocks]] += 1
    chi = scipy.stats.chisquare(counts)
    assert chi.pvalue > 0.001, chi
    # mean block count at n = 10
    sampler = UniformPartitionSampler(10, 7)
    m = 100_000
    xs = [len(sampler.sample().blocks) for _ in range(m)]
    mean = sum(xs) / m
    var = sum((x - mean) ** 2 for x in xs) / (m - 1)
    se = math.sqrt(var / m)
    target = bell(11) / bell(10) - 1
    assert abs(mean - target) <= 3 * se, (mean, target, se)


def test_criterion_11_determinism_and_resume(tmp_path):
    reports = [census(6, cycle(6), "c6", threads=t).to_dict()
               for t in (1, 4, 8)]
    payloads = [canonical_json(r) for r in reports]
    assert payloads[0] == payloads[1] == payloads[2]

    path = str(tmp_path / "manifest.json")
    full = census(6, cycle(6), "c6", manifest_path=path)
    import json
    manifest = json.loads(open(path).read())
    # simulate a kill: drop the second half of the completed shards
    _write_manifest(path, full.config,
                    manifest["shards"][: len(manifest["shards"]) // 2])
    resumed = census(6, cycle(6), "c6", manifest_path=path)
    assert canonical_json(resumed.to_dict()) == canonical_json(full.to_dict())
