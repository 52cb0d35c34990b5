"""Fast tests of the benchmark itself: its oracles, its normalisation and
its tracer.  Run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import FRESH_CLASSES, Inputs, _mask, graph6, prefix_classes  # noqa: E402

cli = worker._import_wpnlab()


# -- oracles against counts known apart from them --------------------------------


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_atlas_classes_and_orbits_cover_all_labeled_graphs(n, classes):
    got = oracles.atlas(n)
    assert len(got) == classes  # OEIS A000088
    assert sum(math.factorial(n) // aut for _, aut in got) == 2 ** math.comb(n, 2)


@pytest.mark.parametrize("n", [4, 5])
def test_small_graphs_are_all_c6_free_and_certifiable(n):
    # With n <= 5 there is no C6, and removing a maximum stable set leaves at
    # most three vertices (or a clique), with no stable triple and no 2K2.
    total = 2 ** math.comb(n, 2)
    assert oracles.census_totals("c6", n) == {
        "total": total, "hfree": total, "certifiable": total}


def test_n6_has_exactly_the_60_labelled_c6():
    t = oracles.census_totals("c6", 6)
    assert t["total"] - t["hfree"] == math.factorial(6) // 12


def test_last4_table_matches_direct_enumeration_at_n5():
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    want = {p: [0, 0] for p in range(64)}
    for mask in range(1 << len(pairs)):
        rows = oracles.rows_of(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
        prefix = mask >> (len(pairs) - 6)
        want[prefix][0] += 1
        want[prefix][1] += oracles.certifiable("c6", n, rows)
    table = oracles.last4_table("c6", n)
    assert {p: [t["total"], t["certifiable"]] for p, t in table.items()} == want


def test_theorem_oracles_on_hand_cases():
    c5 = oracles.rows_of(5, [(i, (i + 1) % 5) for i in range(5)])
    assert oracles.co_girth5(c5, 0b11111)  # co-C5 is C5: girth 5
    two_k2 = oracles.rows_of(4, [(0, 1), (2, 3)])
    assert not oracles.co_girth5(two_k2, 0b1111)
    c6 = oracles.rows_of(6, [(i, (i + 1) % 6) for i in range(6)])
    assert oracles.has_induced_cycle(6, c6, 6)
    assert not oracles.certifiable("c6", 6, c6)


def test_brute_force_witnessing_on_c6():
    c6 = oracles.rows_of(6, [(i, (i + 1) % 6) for i in range(6)])
    k2, e2 = graph6(2, [(0, 1)]), graph6(2, [])
    assert oracles.admits_partition(6, c6, [[k2], [k2]])       # bipartite
    assert not oracles.admits_partition(6, c6, [[k2], [e2]])   # stable + clique
    assert oracles.is_really_canonical([[k2], [e2]])
    assert not oracles.is_really_canonical([[k2, e2]])


def _stirling_moments(n: int) -> tuple[Fraction, Fraction]:
    s = [[1]]
    for m in range(1, n + 1):
        prev = s[-1] + [0]
        s.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    row = s[n]
    total = sum(row)
    mean = Fraction(sum(k * c for k, c in enumerate(row)), total)
    var = Fraction(sum(k * k * c for k, c in enumerate(row)), total) - mean ** 2
    return mean, var


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_block_count_moments_match_stirling_numbers(n):
    assert oracles.bell_numbers(5) == (1, 1, 2, 5, 15, 52)
    mean, var = _stirling_moments(n)
    assert oracles.block_count_moments(n) == pytest.approx((float(mean), float(var)))


def test_sample_check_rejects_a_wrong_row_and_a_shifted_mean():
    o = oracles.Oracle.__new__(oracles.Oracle)
    o.workload = "sample-partitions"
    o.moments = {50: oracles.block_count_moments(50)}
    op = Inputs("sample-partitions", 1).round(0)[0]
    op.check["samples"] = 400
    good = [{"blocks": 17, "nonsingletons": 12, "heavy_vertices": 0}] * 400
    assert o.check(op, '{"samples": %s}' % str(good).replace("'", '"'), 0) == []
    bad = [dict(good[0], blocks=51)] + good[1:]
    assert o.check(op, '{"samples": %s}' % str(bad).replace("'", '"'), 0)
    shifted = [dict(good[0], blocks=20)] * 400
    assert o.check(op, '{"samples": %s}' % str(shifted).replace("'", '"'), 0)


# -- inputs ----------------------------------------------------------------------


def test_inputs_come_from_the_seed_alone():
    from wpnlab.graphs import cycle, is_isomorphic, parse_graph6

    a, b = Inputs("census-unlabeled", 5), Inputs("census-unlabeled", 5)
    assert a.forbids == b.forbids != Inputs("census-unlabeled", 6).forbids
    assert all(is_isomorphic(parse_graph6(g), cycle(m)) for m, g in a.forbids.items())
    assert Inputs("sequences", 5).graph == Inputs("sequences", 6).graph == "KhCGGC@?G?o@"
    assert Inputs("census-labeled", 1).round(3) == Inputs("census-labeled", 1).round(3)


def test_fresh_shards_come_from_fixed_prefix_classes():
    classes = prefix_classes()
    assert len(classes) == 11 and sum(map(len, classes.values())) == 64
    members = [next(v for v in classes.values() if _mask(c) in v)
               for c in FRESH_CLASSES]
    assert [len(m) for m in members] == [12, 12]
    inputs = Inputs("census-labeled", 7)
    for r in range(20):
        fresh = inputs.fresh_shards(r)
        assert fresh[0] in members[0] + members[1]
        assert fresh[1] in members[0] + members[1]
        assert any(p in members[0] for p in fresh) and any(p in members[1] for p in fresh)


# -- normalisation ---------------------------------------------------------------


def test_speed_factor_rescales_to_the_nominal_kernel_time():
    nominal = kernel.NOMINAL_S
    assert kernel.speed_factor([nominal] * 3) == pytest.approx(1.0)
    # a machine at half speed doubles the kernel time: halve the CPU time
    assert 4.0 * kernel.speed_factor([2 * nominal, 2 * nominal]) == pytest.approx(2.0)
    # the mean, not the median, of the durations
    assert kernel.speed_factor([nominal, 3 * nominal]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kernel.speed_factor([])


def test_sampler_scales_each_cpu_slice_by_the_speed_that_ends_it():
    nominal = kernel.NOMINAL_S
    s = kernel.Sampler()
    s.samples = [(100, nominal), (200, 2 * nominal), (300, nominal)]
    # 50 ns at full speed, 100 ns at half speed, 50 ns at full speed
    assert s.normalise(50, 250) == pytest.approx(150e-9)
    # CPU time past the last kernel run takes the last speed measured
    assert s.normalise(250, 400) == pytest.approx(150e-9)
    assert s.normalise(10, 20) == pytest.approx(10e-9)
    with pytest.raises(ValueError):
        kernel.Sampler().normalise(0, 1)


def test_kernel_is_deterministic():
    assert kernel.kernel() == kernel.kernel()


# -- tracing ---------------------------------------------------------------------


_ARGVS = [
    ["census", "--n", "5", "--forbid", "EhEG", "--theorem", "c6", "--format", "json"],
    ["census", "--n", "6", "--forbid", "GhCGKC", "--theorem", "c8", "--mode",
     "unlabeled", "--format", "json"],
    ["sequences", "--graph", "EhEG", "--k", "2", "--format", "json"],
    ["sample-partitions", "--n", "50", "--samples", "5", "--seed", "3",
     "--format", "json"],
]


def test_reports_are_byte_identical_with_tracing_on_and_off():
    import wpnlab.graphs as graphs

    originals = (graphs.canonical_key, graphs.Graph.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [worker.run_op(cli, argv) for argv in _ARGVS]
    finally:
        tracer.uninstall()
    plain = [worker.run_op(cli, argv) for argv in _ARGVS]
    assert traced == plain and all(rc == 0 for rc, _ in plain)
    assert (graphs.canonical_key, graphs.Graph.__post_init__) == originals
    m = tracer.metrics(1.0)
    assert [name for name, _ in spans.PER_LAYER] == list(m)
    assert m["census.crosscheck_calls"] > 0 and m["graphs.canonical_key_calls"] > 0
    assert m["sequences.poset_s"] > 0 and m["counting.sample_n50_us"] > 0
    assert m["witnessing.find_certificate_calls"] > 0
    assert all(v >= 0 for v in m.values())


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer()

    def spin(n):
        return sum(range(n))

    inner = tracer._wrap(spin, "inner")
    outer = tracer._wrap(lambda: spin(200000) + inner(400000) + inner(400000), "outer")
    outer()
    o_calls, o_total, o_self = tracer.spans["outer"]
    i_calls, i_total, i_self = tracer.spans["inner"]
    assert (o_calls, i_calls) == (1, 2) and i_self == i_total
    assert o_self == o_total - i_total
    assert 0 < o_self < i_total


def test_graph6_matches_the_program_encoder():
    from wpnlab.graphs import Graph, emit_graph6

    for n in range(1, 9):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for edges in itertools.islice(itertools.combinations(pairs, 2), 5):
            assert graph6(n, edges) == emit_graph6(Graph.from_edges(n, edges))
