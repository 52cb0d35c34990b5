import bisect
import inspect
import itertools
import math
import sys
from fractions import Fraction

import pytest

from wpnlab.counting import (
    MAX_BELL_N,
    MAX_COGRAPH_N,
    MAX_F_STAR_N,
    MAX_SAMPLER_N,
    SetPartition,
    UniformPartitionSampler,
    bell,
    block_size_stats,
    c2l_lower_bound,
    component_count,
    f_star,
    growth_bounds_hold,
    heavy_threshold,
    iter_set_partitions,
    labeled_cograph_count,
    le_times_log2,
    partition_stats,
    vertices_in_blocks_larger_than,
    _urn_weight_table,
)
from wpnlab.families import FamilySpec, member

from .test_census import graph_from_edge_mask


def test_bell_spot_values():
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    with pytest.raises(ValueError):
        bell(-1)


def test_bell_matches_enumeration():
    for n in range(9):
        assert bell(n) == sum(1 for _ in iter_set_partitions(n))


def test_bell_cross_recurrence():
    # B_{n+1} = sum_k C(n,k) B_k
    for n in range(30):
        assert bell(n + 1) == sum(math.comb(n, k) * bell(k) for k in range(n + 1))


def _all_labeled(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)


_COMPONENT_FAMILY = {
    1: "stars-triangles-co",
    2: "stars-cliques-co",
    3: "split-join-components-co",
}


@pytest.mark.parametrize("i", [1, 2, 3])
def test_component_count_matches_oracle(i):
    """c_i(s) = labeled connected graphs allowed as a complement component,
    brute-forced for s <= 5."""
    fam = FamilySpec.named(_COMPONENT_FAMILY[i])
    for s in range(1, 6):
        oracle = sum(1 for g in _all_labeled(s)
                     if g.is_connected() and member(fam, g.complement()))
        assert component_count(i, s) == oracle, (i, s)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_f_star_matches_brute_force(i):
    fam = FamilySpec.named(_COMPONENT_FAMILY[i])
    for n in range(6):
        oracle = sum(1 for g in _all_labeled(n) if member(fam, g))
        assert f_star(i, n) == oracle, (i, n)


def test_f_star_spot_values():
    assert f_star(1, 4) == 30
    assert f_star(3, 4) == 37


def test_f_star_sandwich_and_monotone():
    for i in (1, 2, 3):
        prev = 0
        for n in range(60):
            assert bell(n) <= f_star(i, n) <= 2 ** n * bell(n)
            assert f_star(i, n) >= prev
            prev = f_star(i, n)


def test_growth_bounds():
    assert all(growth_bounds_hold(i, n) for i in (1, 2, 3)
               for n in range(8, 60))


def test_labeled_cograph_count():
    assert labeled_cograph_count(3) == 8
    assert labeled_cograph_count(4) == 52
    for n in range(6):
        oracle = sum(1 for g in _all_labeled(n)
                     if member(FamilySpec.named("cograph"), g))
        assert labeled_cograph_count(n) == oracle
    assert all(labeled_cograph_count(n) < (2 * n) ** (2 * n)
               for n in range(1, 101))


def test_c2l_lower_bound():
    b = c2l_lower_bound(3, 4)
    assert b.is_integral() and b.exact_value() == 4
    b = c2l_lower_bound(8, 4)
    assert b.exponent == Fraction(56, 3) and b.bell_factor == bell(3)
    assert not b.is_integral()
    with pytest.raises(ValueError):
        b.exact_value()
    # 2^(56/3) * 5 is about 2.4e6
    assert b.le_int(2_500_000) and not b.le_int(2_000_000)
    assert b.ge_int(2_000_000)
    # vacuous census cross-check: every graph on 6 vertices is C8-free
    assert c2l_lower_bound(6, 4).le_int(2 ** 15)
    with pytest.raises(ValueError):
        c2l_lower_bound(5, 3)


def test_le_times_log2_exact():
    # log2(8) = 3 exactly: borderline cases on both sides
    assert le_times_log2(3, 1, 8)
    assert not le_times_log2(4, 1, 8)
    assert le_times_log2(30, 10, 8)
    # 11*log2(500) ~ 98.62
    assert not le_times_log2(100, 11, 500)
    assert le_times_log2(98, 11, 500)


def test_set_partition_validation():
    SetPartition(3, ((0, 1), (2,)))
    with pytest.raises(ValueError):
        SetPartition(3, ((0, 1), ()))
    with pytest.raises(ValueError):
        SetPartition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        SetPartition(4, ((0, 1), (2,)))
    # an element repeated within one block overlaps that block
    with pytest.raises(ValueError, match="overlapping"):
        SetPartition(1, ((0, 0),))
    with pytest.raises(ValueError, match="overlapping"):
        SetPartition(3, ((0, 1, 1), (2,)))
    SetPartition(0, ())
    with pytest.raises(ValueError, match="n must be at least 0"):
        SetPartition(-1, ())


def test_partition_stats():
    p = SetPartition(6, ((0, 1, 2), (3,), (4, 5)))
    st = partition_stats(p)
    assert st.blocks == 3 and st.nonsingleton_blocks == 2
    assert vertices_in_blocks_larger_than(p, 2) == 3
    assert vertices_in_blocks_larger_than(p, 1) == 5
    assert block_size_stats((3, 1, 2), 1) == (3, 2, 5)
    assert block_size_stats((1,), 0) == (1, 0, 1)
    assert block_size_stats((), 0) == (0, 0, 0)


def test_heavy_threshold_is_the_float_floor_it_replaced():
    """The integer threshold equals floor(log(n)**3) in floats, the value
    the pinned sample-partitions reports were written with."""
    assert [heavy_threshold(n) for n in range(1, MAX_SAMPLER_N + 1)] == \
        [math.floor(math.log(n) ** 3) for n in range(1, MAX_SAMPLER_N + 1)]
    for n in (0, MAX_SAMPLER_N + 1):
        with pytest.raises(ValueError, match="heavy threshold needs"):
            heavy_threshold(n)


def test_sampler_determinism_and_bounds():
    a = [UniformPartitionSampler(7, 123).sample().blocks for _ in range(3)]
    assert a[0] == a[1] == a[2]
    s1 = UniformPartitionSampler(7, 9)
    s2 = UniformPartitionSampler(7, 9)
    assert [s1.sample() for _ in range(10)] == [s2.sample() for _ in range(10)]
    with pytest.raises(ValueError):
        UniformPartitionSampler(0, 1)
    with pytest.raises(ValueError):
        UniformPartitionSampler(2001, 1)


def test_sampler_rejects_a_negative_seed():
    """random.Random seeds with |seed|, so a negative seed would repeat the
    samples of its absolute value."""
    with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
        UniformPartitionSampler(7, -3)
    UniformPartitionSampler(7, 0).sample()


def _randrange_sample(sampler):
    """The urn count and blocks of one draw made as the sampler first made
    it: `randrange(u)` per element, then blocks sorted by least element."""
    rng = sampler._rng
    r = rng.randrange(sampler._total)
    u = bisect.bisect_right(sampler._cum, r) + 1
    urns = {}
    for x in range(sampler.n):
        urns.setdefault(rng.randrange(u), []).append(x)
    return u, tuple(sorted((tuple(b) for b in urns.values()),
                           key=lambda b: b[0]))


def test_sampler_stream_matches_randrange_reference():
    """The inlined urn draw consumes the generator exactly as `randrange`
    does, so seeded samples equal the reference's, across urn counts at
    and around powers of two; `sample(sizes=True)` reads the same draw,
    so a twin asked only for sizes gets those of each sample and ends in
    the same generator state."""
    urn_counts = set()
    cases = [(n, seed, 5) for n in range(1, 13) for seed in range(50)]
    cases += [(50, seed, 4) for seed in range(3)] + [(2000, 1, 2)]
    for n, seed, samples in cases:
        fast = UniformPartitionSampler(n, seed)
        ref = UniformPartitionSampler(n, seed)
        sizes = UniformPartitionSampler(n, seed)
        for _ in range(samples):
            u, blocks = _randrange_sample(ref)
            urn_counts.add(u)
            b = fast.sample().blocks
            assert b == blocks, (n, seed)
            assert sizes.sample(sizes=True) == tuple(map(len, b)), (n, seed)
        assert sizes._rng.getstate() == fast._rng.getstate() == ref._rng.getstate()
    assert {1, 2, 3, 4, 5, 7, 8, 9} <= urn_counts


def test_sampled_sizes_raise_unless_they_sum_to_n():
    """The sizes' one check is a raise, so it holds under python -O too."""
    s = UniformPartitionSampler(3, 1)
    s._urns = lambda: [0, 1]
    with pytest.raises(ValueError, match="block sizes sum to 2, not n = 3"):
        s.sample(sizes=True)


def test_sampler_n1_and_n2():
    assert UniformPartitionSampler(1, 5).sample().blocks == ((0,),)
    s = UniformPartitionSampler(2, 31)
    together = sum(1 for _ in range(40000) if len(s.sample().blocks) == 1)
    assert abs(together / 40000 - 0.5) < 0.01


def _fraction_urn_table(n):
    """The urn weights built in exact rationals, scaled by the lcm of their
    denominators."""
    weights = []
    u, fact, total = 1, 1, Fraction(0)
    while True:
        w = Fraction(u ** n, fact * u)
        weights.append(w)
        total += w
        if u > 1 and w < weights[-2]:
            ratio = w / weights[-2]
            if w * ratio / (1 - ratio) < total * Fraction(1, 1 << 100):
                break
        fact *= u
        u += 1
    denom = math.lcm(*(w.denominator for w in weights))
    cum = tuple(itertools.accumulate(int(w * denom) for w in weights))
    return cum, cum[-1]


def test_urn_weight_table_matches_rational_reference():
    for n in list(range(1, 80)) + [150, 500, 2000]:
        assert _urn_weight_table(n) == _fraction_urn_table(n), n


def test_counts_do_not_recurse():
    n = 1300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        b = bell(n + 1)
        f = [f_star(3, m) for m in (399, 400)]
        c = labeled_cograph_count(400)
    finally:
        sys.setrecursionlimit(limit)
    assert b == sum(math.comb(n, k) * bell(k) for k in range(n + 1))
    assert f[0] < f[1] and c % 2 == 0
    for count, cap in ((bell, MAX_BELL_N), (lambda n: f_star(2, n), MAX_F_STAR_N),
                       (labeled_cograph_count, MAX_COGRAPH_N)):
        for bad in (-1, cap + 1):
            with pytest.raises(ValueError):
                count(bad)


def test_expected_block_identity_by_enumeration():
    # E[#blocks] = B_{n+1}/B_n - 1, exactly, via exhaustive enumeration
    for n in range(1, 9):
        total_blocks = sum(len(p) for p in iter_set_partitions(n))
        assert Fraction(total_blocks, bell(n)) == Fraction(bell(n + 1), bell(n)) - 1
