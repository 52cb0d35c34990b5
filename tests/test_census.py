import itertools
import json
import math
import random
import types
from decimal import getcontext, localcontext

import pytest

from wpnlab import graphs
from wpnlab.census import (
    MAX_LABELED_N,
    MAX_UNLABELED_N,
    CensusConfig,
    ConfigMismatch,
    c6_certificate,
    canonical_json,
    census,
    config_hash,
    girth5_census,
    has_induced_cycle,
    _count_shard,
    _cycle_split,
    _fold,
    _pair_order,
    _shard_graphs,
    _write_manifest,
)
from wpnlab.families import _unlabeled_level, _unlabeled_up_to
from wpnlab.graphs import (
    automorphism_count,
    canonical_key,
    clique,
    contains_induced,
    cycle,
    emit_graph6,
    is_isomorphic,
    parse_graph6,
    path,
)
from wpnlab.graphs import Graph
from wpnlab.witnessing import (
    find_certificate,
    theorem_cycle,
    theorem_sequence,
)

from .test_witnessing import _is_certificate


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """The validated graph with edge e, the e-th pair i < j in row order,
    present iff bit e of mask is set: the oracle of the Gray walk."""
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [p for e, p in enumerate(pairs) if mask >> e & 1])


def test_labeled_cap_rejects_larger_n():
    assert MAX_LABELED_N == 7
    for n in (8, 9):
        with pytest.raises(ValueError, match="labeled census supports"):
            census(n, cycle(6), "c6", mode="labeled")


# graphs on n unlabeled vertices: OEIS A000088
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def test_unlabeled_class_counts():
    for n in range(1, 9):
        assert len(list(_unlabeled_level(n))) == CLASS_COUNTS[n]


def test_unlabeled_cap_rejects_larger_n():
    assert MAX_UNLABELED_N == 9
    with pytest.raises(ValueError, match="unlabeled census supports"):
        census(MAX_UNLABELED_N + 1, cycle(6), "c6", mode="unlabeled")


def test_class_representatives_are_never_searched(monkeypatch):
    import wpnlab.families as fam

    _unlabeled_up_to(7)
    for m in (6, 8):
        canonical_key(cycle(m))   # the forbidden cycles the configs check

    def no_search(g):
        raise AssertionError(f"searched {emit_graph6(g)}")

    for module in (graphs, fam):
        monkeypatch.setattr(module, "_canon_search", no_search)
    assert census(7, cycle(6), "c6", mode="unlabeled").total == 1 << 21
    assert census(7, cycle(8), "c8", mode="unlabeled").total == 1 << 21
    labeled = girth5_census(7, mode="labeled")
    unlabeled = girth5_census(7, mode="unlabeled")
    assert labeled.graphs > unlabeled.graphs > 0


def test_orbit_sizes_sum_to_labeled_count():
    for n in range(1, 9):
        assert sum(w for _, w in _unlabeled_level(n)) == \
            1 << (n * (n - 1) // 2)
    assert automorphism_count(clique(5)) == math.factorial(5)
    assert automorphism_count(cycle(5)) == 10


def _atlas_classes(n):
    """(rows, n!/|Aut|) for every class on n <= 7 vertices, from networkx's
    graph atlas and its own isomorphism search."""
    import networkx as nx

    out = []
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() != n:
            continue
        rows = [0] * n
        for u, v in a.edges():
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        aut = sum(1 for _ in nx.vf2pp_all_isomorphisms(a, a))
        out.append((tuple(rows), math.factorial(n) // aut))
    return out


def test_unlabeled_census_at_eight_matches_atlas_extensions():
    """An n = 8 oracle that shares no code with class generation.  A labeled
    graph on 8 vertices is a labeled graph on the first 7 plus the
    neighbourhood of vertex 7, so folding the 128 extensions of each class
    on 7 vertices, weighted 7!/|Aut|, counts every labeled graph on 8."""
    parents = _atlas_classes(7)
    assert len(parents) == CLASS_COUNTS[7]
    assert sum(w for _, w in parents) == 1 << 21

    def extensions():
        for rows, w in parents:
            for nb in range(1 << 7):
                yield tuple(row | (nb >> i & 1) << 7
                            for i, row in enumerate(rows)) + (nb,), w, 0

    for theorem, m in (("c6", 6), ("c8", 8), ("c10", 10)):
        config = CensusConfig(n=8, forbidden_g6=emit_graph6(cycle(m)),
                              theorem=theorem, mode="unlabeled")
        report = census(8, cycle(m), theorem, mode="unlabeled")
        assert _fold(config, extensions()) == \
            (report.total, report.hfree, report.certifiable)


def _split_verdict(adj, m: int) -> bool:
    return any(adj[0] & t == ends for t, ends in _cycle_split(adj, m))


def test_has_induced_cycle_matches_generic_check():
    """On every labeled graph with n <= 6 and every m from 3 to 7, the
    split's verdict and has_induced_cycle are contains_induced's."""
    cycles = {m: cycle(m) for m in range(3, 8)}
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_edge_mask(n, mask)
            for m, c in cycles.items():
                oracle = contains_induced(g, c)
                assert has_induced_cycle(g, m) == oracle, (n, mask, m)
                assert _split_verdict(g.adj, m) == oracle, (n, mask, m)
    assert not has_induced_cycle(Graph(0, ()), 3)


def test_has_induced_cycle_rejects_m_below_three():
    for m in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="m >= 3"):
            has_induced_cycle(clique(4), m)


def _split_by_brute_force(g: Graph, m: int) -> list:
    """[(0, 0)] if some m-set avoiding vertex 0 induces C_m; else every
    (T, ends) with T an (m-1)-set avoiding vertex 0 that induces a path,
    in combination order, by isomorphism with C_m and P_{m-1}."""
    def mask(vs):
        return sum(1 << v for v in vs)

    for vs in itertools.combinations(range(1, g.n), m):
        if is_isomorphic(g.induced(mask(vs)), cycle(m)):
            return [(0, 0)]
    pairs = []
    for vs in itertools.combinations(range(1, g.n), m - 1):
        t = mask(vs)
        if is_isomorphic(g.induced(t), path(m - 1)):
            ends = mask(v for v in vs if (g.adj[v] & t).bit_count() < 2)
            pairs.append((t, ends))
    return pairs


def test_cycle_split_lists_the_brute_force_pairs():
    """The split of every labeled graph with n <= 6, m from 3 to 7, is the
    brute-force list of G - 0, whatever vertex 0's row."""
    oracle = {}
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_edge_mask(n, mask)
            without_0 = g.induced(g.vertex_mask() - 1)
            for m in range(3, 8):
                key = (without_0.adj, m)
                if key not in oracle:
                    oracle[key] = _split_by_brute_force(g, m)
                assert list(_cycle_split(g.adj, m)) == oracle[key], \
                    (n, mask, m)
    # past n = 6: C6 on 0..5 beside P5 on 6..10 has two P5s avoiding
    # vertex 0, and with vertex 0 put apart the split ends at the C6
    g = cycle(6).disjoint_union(path(5))
    assert list(_cycle_split(g.adj, 6)) == [(0b111110, 0b100010),
                                            (0b11111000000, 0b10001000000)]
    g = Graph(1, (0,)).disjoint_union(g)
    assert list(_cycle_split(g.adj, 6)) == [(0, 0)]


def test_c6_certificate_matches_generic_certificate_search():
    # every labeled graph with n <= 6
    seq = theorem_sequence("c6")
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_edge_mask(n, mask)
            parts = c6_certificate(g)
            cert = find_certificate(g, seq)
            assert (parts is None) == (cert is None)
            if parts is not None:
                assert _is_certificate(g, seq, parts)
                assert _is_certificate(g, seq, cert)


@pytest.mark.parametrize("theorem", ["c6", "c8"])
def test_stale_certificates_never_change_a_fold_count(theorem):
    """The fold offers each graph the last certificate found.  Over
    shuffled orders, where that certificate is mostly stale, its counts are
    those of a fresh certificate search on every graph: c6 on every labeled
    graph with n <= 6, and c8 on the n = 8 classes, with the orbit weights
    the unlabeled census uses."""
    rng = random.Random(12)
    m = theorem_cycle(theorem).n
    if theorem == "c6":
        levels = [(n, "labeled", [(graph_from_edge_mask(n, mask), 1)
                                  for mask in range(1 << n * (n - 1) // 2)])
                  for n in range(1, 7)]
    else:
        # only 2 of the 12345 C8-free classes have no certificate
        levels = [(8, "unlabeled", list(_unlabeled_level(8)))]
    for n, mode, weighted in levels:
        config = CensusConfig(n=n, forbidden_g6=emit_graph6(cycle(m)),
                              theorem=theorem, mode=mode)
        hfree = sum(w for g, w in weighted if not has_induced_cycle(g, m))
        seq = theorem_sequence(theorem)
        certifiable = sum(w for g, w in weighted
                          if find_certificate(g, seq) is not None)
        if n >= 6:
            assert 0 < certifiable < hfree
        for _ in range(5 if n < 6 else 1 if n == 6 else 2):
            rng.shuffle(weighted)
            assert _fold(config, [(g.adj, w, 0) for g, w in weighted]) == (
                sum(w for _, w in weighted), hfree, certifiable)


def test_census_small_vacuous():
    # no C6 fits in 5 vertices, and every graph there is certifiable? not
    # necessarily certifiable -- but hfree must equal total
    rep = census(5, cycle(6), "c6")
    assert rep.total == rep.hfree == 1024
    assert rep.certifiable == 1024  # verified exhaustively elsewhere


def test_census_known_value_n6():
    rep = census(6, cycle(6), "c6")
    assert rep.total == 1 << 15
    assert rep.hfree == 32708
    assert 0 < rep.certifiable < rep.hfree


def test_census_report_leaves_decimal_context_alone():
    with localcontext() as ctx:
        ctx.prec = 7
        frac = census(6, cycle(6), "c6", mode="unlabeled").to_dict()[
            "certifiable_fraction"]
        assert getcontext().prec == 7
    assert frac == {"exact": "8157/8177", "decimal": "0.997554115201174"}


def test_census_modes_agree():
    # c6 falls back on its own search, c8 and c10 on the generic one
    cases = [(n, 6) for n in range(3, 7)] + \
        [(n, m) for m in (8, 10) for n in range(3, 6)]
    for n, m in cases:
        lab = census(n, cycle(m), f"c{m}", mode="labeled")
        unl = census(n, cycle(m), f"c{m}", mode="unlabeled")
        assert (lab.total, lab.hfree, lab.certifiable) == \
            (unl.total, unl.hfree, unl.certifiable), (n, m)


def test_census_threads_do_not_change_counts():
    one = census(6, cycle(6), "c6", threads=1)
    four = census(6, cycle(6), "c6", threads=4)
    assert one.to_dict() == four.to_dict()


def test_worker_pool_is_no_larger_than_the_pending_shards(monkeypatch):
    """census asks for at most one worker per pending shard.  The fake pool
    records the size asked for and counts the shards in this process, so
    no process is started."""
    import wpnlab.census as census_module

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

        def terminate(self):
            pass

    monkeypatch.setattr(census_module.multiprocessing, "Pool", FakePool)
    whole = census(4, cycle(6), "c6", threads=1)
    for threads, expected in ((1000, [64]), (3, [3]), (1, [])):
        sizes.clear()
        report = census(4, cycle(6), "c6", threads=threads)
        assert sizes == expected, threads
        assert report.to_dict() == whole.to_dict()


def test_soundness_crosscheck_cadence(monkeypatch):
    import wpnlab.census as c

    calls = []
    real = c.contains_induced
    monkeypatch.setattr(c, "contains_induced",
                        lambda g, h: calls.append(g) or real(g, h))
    # n <= 6: every certifiable graph, labeled or class representative
    census(4, cycle(6), "c6")
    assert len(calls) == 1 << 6
    calls.clear()
    census(5, cycle(6), "c6", mode="unlabeled")
    assert len(calls) == CLASS_COUNTS[5]
    calls.clear()
    # n = 7: every 1024th certifiable class visited, counted without weights
    census(7, cycle(8), "c8", mode="unlabeled")
    k = sum(1 for g, _ in _unlabeled_level(7)
            if find_certificate(g, theorem_sequence("c8")) is not None)
    assert k > 1024 and len(calls) == 1 + (k - 1) // 1024
    calls.clear()
    # one labeled n = 7 shard, walked in Gray-code order
    shard = _count_shard(_config(7, "c6", 6), 3)
    k = shard["certifiable"]
    assert k > 1024 and len(calls) == 1 + (k - 1) // 1024


def _config(n: int, theorem: str, prefix_bits: int) -> CensusConfig:
    return CensusConfig(n=n, forbidden_g6=emit_graph6(theorem_cycle(theorem)),
                        theorem=theorem, mode="labeled",
                        shard_prefix_bits=prefix_bits)


def _edge_mask(rows) -> int:
    return sum(1 << e for e, (i, j) in enumerate(_pair_order(len(rows)))
               if rows[i] >> j & 1)


def _shard_masks(config: CensusConfig, prefix: int) -> range:
    low = config.n * (config.n - 1) // 2 - config.shard_prefix_bits
    return range(prefix << low, prefix + 1 << low)


def _check_gray_walk(config: CensusConfig, prefix: int, plain: tuple) -> None:
    """The walk visits each mask of the shard once, as the rows of the
    validated graph of that mask, with the vertex mask of the one pair
    flipped since the graph before (0 first), and its counts are
    ``plain``, the counts in mask order."""
    n = config.n
    masks = _shard_masks(config, prefix)
    low = len(masks).bit_length() - 1
    walked = list(_shard_graphs(n, prefix, low))
    assert sorted(_edge_mask(rows) for rows, _ in walked) == list(masks)
    before = None
    for rows, flip in walked:
        assert type(rows) is tuple and len(rows) == n
        assert Graph(n, rows) == graph_from_edge_mask(n, _edge_mask(rows))
        if before is None:
            assert flip == 0
        else:
            changed = _edge_mask(rows) ^ _edge_mask(before)
            assert changed.bit_count() == 1
            i, j = _pair_order(n)[changed.bit_length() - 1]
            assert flip == 1 << i | 1 << j
        before = rows
    shard = _count_shard(config, prefix)
    assert (shard["total"], shard["hfree"], shard["certifiable"]) == plain


def _check_gray_walks(theorem: str, n: int) -> None:
    """Every shard layout of the labeled census at n <= 6 has the plain
    counts of its masks, each folded alone (n <= 6 cross-checks every
    certifiable graph anyway)."""
    whole = _config(n, theorem, 0)
    per_mask = [_fold(whole, [(graph_from_edge_mask(n, m).adj, 1, 0)])
                for m in range(1 << n * (n - 1) // 2)]
    for prefix_bits in (0, 3, 6):
        if prefix_bits <= n * (n - 1) // 2:
            config = _config(n, theorem, prefix_bits)
            for prefix in range(1 << prefix_bits):
                masks = _shard_masks(config, prefix)
                plain = tuple(sum(c) for c in
                              zip(*(per_mask[m] for m in masks)))
                _check_gray_walk(config, prefix, plain)


def test_gray_walk_visits_each_shard_mask_once_with_plain_counts():
    for n in range(1, 7):
        _check_gray_walks("c6", n)
    # the P3 and P4 shards that the benchmark computes afresh, against
    # the graph of each mask tested and certified alone
    config = _config(7, "c6", 6)
    for prefix, counts in ((3, (32768, 32168, 30612)),
                           (19, (32768, 32156, 31033))):
        graphs = [graph_from_edge_mask(7, m)
                  for m in _shard_masks(config, prefix)]
        hfree = [g for g in graphs if not has_induced_cycle(g, 6)]
        plain = (len(graphs), len(hfree),
                 sum(c6_certificate(g) is not None for g in hfree))
        assert plain == counts
        _check_gray_walk(config, prefix, plain)


@pytest.mark.parametrize("theorem", ["c8", "c10"])
def test_gray_walk_rechecks_generic_certificates_with_plain_counts(theorem):
    """The fold rechecks only the part holding both ends of a flipped
    pair; under the generic recognizers too, the counts are plain."""
    for n in range(1, 7):
        _check_gray_walks(theorem, n)


def test_gray_walk_reaches_the_uncertifiable_c8_classes_at_eight():
    """Every graph on at most 6 vertices has a c8 certificate (and every
    C10-free one on at most 9 a c10 one), so the counts above cannot tell
    which part the fold rechecks.  The two C8-free classes on 8 vertices
    with no certificate can: a walk steps into each from a certified
    graph by flipping a pair inside one part, which only a recheck of
    that part refutes."""
    config = CensusConfig(n=8, forbidden_g6=emit_graph6(cycle(8)),
                          theorem="c8", mode="unlabeled")
    for g6 in ("G`?G?C", "GWCOOK"):
        prefix = _edge_mask(parse_graph6(g6).adj) >> 8
        walk = _fold(config, ((rows, 1, flip) for rows, flip in
                              _shard_graphs(8, prefix, 8)))
        plain = _fold(config, ((graph_from_edge_mask(8, prefix << 8 | r).adj,
                                1, 0) for r in range(1 << 8)))
        assert walk == plain and plain[2] < plain[1]


def test_census_config_rejects_bad_theorem_ids():
    c6 = emit_graph6(cycle(6))
    for theorem in ("c2l:3", "c2l:5", "c6x"):
        with pytest.raises(ValueError):
            CensusConfig(n=4, forbidden_g6=c6, theorem=theorem, mode="labeled")
    CensusConfig(n=4, forbidden_g6=emit_graph6(cycle(12)), theorem="c2l:6",
                 mode="labeled")


def test_census_rejects_nonpositive_threads():
    for threads in (0, -3):
        with pytest.raises(ValueError):
            census(4, cycle(6), "c6", threads=threads)


def test_unlabeled_census_rejects_manifest_and_threads(tmp_path):
    path = tmp_path / "manifest.json"
    with pytest.raises(ValueError):
        census(5, cycle(6), "c6", mode="unlabeled", manifest_path=str(path))
    assert not path.exists()
    with pytest.raises(ValueError, match="^unlabeled"):
        census(5, cycle(6), "c6", mode="unlabeled", threads=2)


def test_census_submodule_is_not_shadowed():
    import wpnlab
    import wpnlab.census as c

    assert isinstance(c, types.ModuleType)
    assert wpnlab.census is c
    assert c.CensusConfig is CensusConfig and c.census is census


def test_census_rejects_mismatched_theorem():
    with pytest.raises(ValueError):
        census(6, cycle(6), "c8")
    with pytest.raises(ValueError):
        census(6, clique(3), "c6")
    with pytest.raises(ValueError):
        CensusConfig(n=6, forbidden_g6="Bw", theorem="c6", mode="labeled")


def test_manifest_resume(tmp_path):
    path = str(tmp_path / "manifest.json")
    full = census(5, cycle(6), "c6", manifest_path=path)
    manifest = json.loads(open(path).read())
    config = full.config
    assert manifest["config_hash"] == config.hash()
    # simulate a killed run: keep only the first half of the shards
    partial = manifest["shards"][: len(manifest["shards"]) // 2]
    _write_manifest(path, config, partial)
    resumed = census(5, cycle(6), "c6", manifest_path=path)
    assert resumed.to_dict() == full.to_dict()


@pytest.fixture(scope="module")
def uninterrupted_n6(tmp_path_factory):
    """The report and manifest bytes of a whole labeled n = 6 C6 run."""
    path = tmp_path_factory.mktemp("whole") / "manifest.json"
    report = census(6, cycle(6), "c6", manifest_path=str(path))
    return canonical_json(report.to_dict()), path.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_killed_labeled_run_keeps_its_finished_shards(tmp_path, monkeypatch,
                                                      uninterrupted_n6, threads):
    """A run whose third shard dies leaves a manifest of finished shards
    only; resuming from it gives the uninterrupted run's report and
    manifest, byte for byte."""
    import multiprocessing

    import wpnlab.census as census_module

    full_report, full_manifest = uninterrupted_n6
    expected = {s["prefix"]: s for s in json.loads(full_manifest)["shards"]}
    real = census_module._count_shard
    calls = [0]

    def dies_third(config, prefix):
        calls[0] += 1
        if calls[0] == 3:
            raise RuntimeError("shard killed")
        return real(config, prefix)

    monkeypatch.setattr(census_module, "_count_shard", dies_third)
    # pool workers see the patched module only when they are forked
    monkeypatch.setattr(multiprocessing, "Pool",
                        multiprocessing.get_context("fork").Pool)
    path = tmp_path / "manifest.json"
    with pytest.raises(RuntimeError, match="shard killed"):
        census(6, cycle(6), "c6", threads=threads, manifest_path=str(path))
    shards = json.loads(path.read_text())["shards"]
    assert 2 <= len(shards) < len(expected)
    if threads == 1:
        assert [s["prefix"] for s in shards] == [0, 1]
    assert all(s == expected[s["prefix"]] for s in shards)
    monkeypatch.setattr(census_module, "_count_shard", real)
    resumed = census(6, cycle(6), "c6", threads=threads, manifest_path=str(path))
    assert canonical_json(resumed.to_dict()) == full_report
    assert path.read_bytes() == full_manifest


def test_slow_labeled_run_rewrites_its_manifest_as_shards_finish(tmp_path,
                                                                 monkeypatch):
    """The manifest is written once before the first shard, so an
    unwritable path fails before any work.  With a second between shards
    it is rewritten after each one, so a killed run loses only the shards
    in progress."""
    import wpnlab.census as census_module

    clock = itertools.count(0, 1)
    monkeypatch.setattr(census_module, "monotonic", lambda: next(clock))
    sizes = []
    write = census_module._write_manifest

    def counting(path, config, shards):
        sizes.append(len(shards))
        write(path, config, shards)

    monkeypatch.setattr(census_module, "_write_manifest", counting)
    census(5, cycle(6), "c6", manifest_path=str(tmp_path / "manifest.json"))
    assert sizes == list(range(65)) + [64]


def test_manifest_config_mismatch(tmp_path):
    path = str(tmp_path / "manifest.json")
    census(5, cycle(6), "c6", manifest_path=path)
    with pytest.raises(ConfigMismatch):
        census(6, cycle(6), "c6", manifest_path=path)


def test_shard_counts_are_a_partition_of_the_whole():
    config = CensusConfig(n=5, forbidden_g6=emit_graph6(cycle(6)),
                          theorem="c6", mode="labeled", shard_prefix_bits=3)
    shards = [_count_shard(config, p) for p in range(8)]
    assert sum(s["total"] for s in shards) == 1 << 10


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}'
    assert config_hash({"x": 1}) == config_hash({"x": 1})
    assert config_hash({"x": 1}) != config_hash({"x": 2})


def test_census_config_hashes_are_those_of_version_0_1_0():
    """Reports and manifests name their configuration by this hash, so a
    manifest that version 0.1.0 wrote resumes only while it holds."""
    labeled = CensusConfig(n=7, forbidden_g6="EhEG", theorem="c6",
                           mode="labeled", shard_prefix_bits=6)
    unlabeled = CensusConfig(n=9, forbidden_g6="EhEG", theorem="c6",
                             mode="unlabeled")
    assert (labeled.hash(), unlabeled.hash()) == (
        "be32ac90ba661d1acfe485791eb94f6f311c299980e1b5a797bf1e9643578191",
        "be42694a80d9bf16a4a397f857472c058ab41823d55f2d1aeb66409a1b20d5dc")


def _nx_girth(g):
    import networkx as nx

    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return nx.girth(h)


def test_girth5_filter_matches_networkx_girth():
    """girth5_census keeps a graph iff it has no induced C3 and no induced
    C4.  networkx's girth is the oracle on graphs of girth 3, 4, 5, 9 and
    infinity, and on every class on <= 8 vertices, where the census must
    also count exactly the classes of girth >= 5."""
    def kept(g):
        return not (has_induced_cycle(g, 3) or has_induced_cycle(g, 4))

    named = [cycle(5), cycle(9), clique(4), path(6),
             cycle(4).disjoint_union(cycle(7)), parse_graph6("IheA@GUAo")]
    assert [kept(g) for g in named] == [True, True, False, True, False, True]
    assert [kept(g) for g in named] == [_nx_girth(g) >= 5 for g in named]
    for n in range(1, 9):
        oracle = [_nx_girth(g) >= 5 for g, _ in _unlabeled_level(n)]
        assert [kept(g) for g, _ in _unlabeled_level(n)] == oracle, n
        assert girth5_census(n, mode="unlabeled").graphs == sum(oracle), n


def test_girth5_census_n5():
    rep = girth5_census(5, mode="labeled")
    assert rep.graphs == 303
    assert rep.heavy_check_passed == rep.graphs
    assert sum(rep.s_distribution.values()) == rep.graphs
    unl = girth5_census(5, mode="unlabeled")
    assert unl.graphs < rep.graphs


def test_girth5_census_rejects_bad_n():
    with pytest.raises(ValueError):
        girth5_census(0)
    for mode in ("labeled", "unlabeled"):
        with pytest.raises(ValueError, match="girth-5 census supports"):
            girth5_census(MAX_UNLABELED_N + 1, mode=mode)


def test_girth5_census_rejects_bad_mode():
    for mode in ("bogus", "unlabeled-weighted", "Labeled"):
        with pytest.raises(ValueError, match="mode must be"):
            girth5_census(5, mode=mode)
