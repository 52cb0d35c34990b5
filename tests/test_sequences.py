import itertools
import random
from collections import Counter

import pytest

import wpnlab.families
import wpnlab.graphs
import wpnlab.sequences
from wpnlab.families import FamilySpec
from wpnlab.graphs import Graph, canonical_key, clique, contains_induced, cycle, \
    empty, path
from wpnlab.sequences import (
    _build_constraints,
    _minimal_hitting_sets,
    classify_sequence,
    enumerate_really_canonical_sequences,
    part_class_multisets,
    subgraph_poset,
)
from wpnlab.witnessing import (
    BudgetExhausted,
    WitnessSequence,
    find_certificate,
    is_really_canonical,
    splits_into,
)

from .test_graphs import random_graph


def test_subgraph_poset_of_c6():
    poset = subgraph_poset(cycle(6))
    # distinct induced-subgraph classes of C6: K0,K1,K2,E2,P3,E3,coP3,
    # P4,2K2,P3+K1,E4, P5,P4+K1,2K2+... and C6, P5+K1-types at n=5, etc.
    sizes = sorted(g.n for g in poset.reps)
    assert sizes[0] == 0 and sizes[-1] == 6
    assert len(poset.reps) == len(set(canonical_key(g) for g in poset.reps))
    # every subset maps to a class of the right order
    assert poset.class_of_mask[0b111] in range(len(poset.reps))


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(tuple(perm))


POSET_GRAPHS = (
    [cycle(n) for n in range(3, 13)]
    + [_relabelled(cycle(12), seed) for seed in (1, 2)]
    + [random_graph(n, random.Random(seed).getrandbits(n * (n - 1) // 2))
       for seed, n in enumerate(list(range(9)) * 3)]
)


def test_subgraph_poset_matches_brute_force():
    """class_of_mask against labelling every induced subgraph, and below
    against an induced-containment test on every pair of classes."""
    contains: dict = {}     # the relabelled C12s share their class pairs
    for h in POSET_GRAPHS:
        poset = subgraph_poset(h)
        keys = [canonical_key(g) for g in poset.reps]
        assert len(set(keys)) == len(keys)
        assert all(canonical_key(g) == (g.n, g.adj) for g in poset.reps)
        seen = []
        for mask in range(1 << h.n):
            c = poset.class_of_mask[mask]
            assert keys[c] == canonical_key(h.induced(mask))
            if c == len(seen):      # classes numbered by first mask
                seen.append(mask)
            assert c < len(seen)
        for c, big in enumerate(poset.reps):
            assert poset.below[c] >> len(poset.reps) == 0
            for p, small in enumerate(poset.reps):
                pair = (keys[c], keys[p])
                if pair not in contains:
                    contains[pair] = small.n <= big.n and contains_induced(big, small)
                assert bool(poset.below[c] >> p & 1) == contains[pair], (h, c, p)
        cliques = poset.classes_in(FamilySpec.named("clique"))
        stables = poset.classes_in(FamilySpec.named("stable"))
        assert cliques == sum(1 << c for c, g in enumerate(poset.reps)
                              if g.edge_count() == g.n * (g.n - 1) // 2)
        assert stables == sum(
            1 << c for c, g in enumerate(poset.reps) if g.edge_count() == 0)
        # K0 and K1 are in every hereditary family, so no slot rejects them
        tiny = sum(1 << c for c, g in enumerate(poset.reps) if g.n <= 1)
        assert tiny & ~(cliques & stables) == 0


def _subset_orbit_count(h: Graph, perms) -> int:
    """Orbits of vertex masks under the listed permutations (a whole group)."""
    return len({min(sum(1 << perm[v] for v in range(h.n) if mask >> v & 1)
                    for perm in perms)
                for mask in range(1 << h.n)})


def _dihedral(n: int, relabel: list[int]) -> list[list[int]]:
    """Aut(C_n) as permutations, conjugated by the relabelling."""
    inv = [0] * n
    for v, w in enumerate(relabel):
        inv[w] = v
    group = []
    for shift in range(n):
        for sign in (1, -1):
            group.append([relabel[(sign * inv[w] + shift) % n] for w in range(n)])
    return group


@pytest.mark.parametrize("n, seed", [(6, None), (9, None), (12, None), (12, 1)])
def test_subgraph_poset_labels_once_per_subset_orbit(monkeypatch, n, seed):
    relabel = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(relabel)
    h = cycle(n).relabel(tuple(relabel))
    orbits = _subset_orbit_count(h, _dihedral(n, relabel))
    if n == 12:
        assert orbits == 224          # binary bracelets of length 12, A000029
    calls = {"key": 0, "search": 0, "contains": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wpnlab.graphs._canon_cached.cache_clear()
    monkeypatch.setattr(wpnlab.graphs, "_canon_search",
                        counted("search", wpnlab.graphs._canon_search))
    monkeypatch.setattr(wpnlab.sequences, "canonical_key",
                        counted("key", wpnlab.sequences.canonical_key))
    for module in (wpnlab.graphs, wpnlab.families):
        monkeypatch.setattr(module, "contains_induced",
                            counted("contains", wpnlab.graphs.contains_induced))
    subgraph_poset(h)
    assert calls["contains"] == 0
    assert calls["key"] <= orbits
    assert calls["search"] <= orbits


def test_part_class_multisets_c6_k2():
    g = cycle(6)
    poset = subgraph_poset(g)
    ms = part_class_multisets(g, 2, poset)
    # the two stable triples form a realizable split
    e3 = next(i for i, r in enumerate(poset.reps)
              if r.n == 3 and r.edge_count() == 0)
    assert (e3, e3) in ms
    # C6 + empty graph is always realizable
    c6 = next(i for i, r in enumerate(poset.reps) if r.n == 6)
    k0 = next(i for i, r in enumerate(poset.reps) if r.n == 0)
    assert tuple(sorted((c6, k0))) in ms


def _seeded_graph(n: int, seed: int) -> Graph:
    return random_graph(n, random.Random(seed).getrandbits(n * (n - 1) // 2))


def _brute_part_class_multisets(h: Graph, k: int, poset) -> set:
    """Every set partition of V(h) into at most k blocks, walked as a
    restricted growth string, as the sorted tuple of its block classes
    padded with the 0-vertex class."""
    out = set()

    def walk(v: int, blocks: list[int]) -> None:
        if v == h.n:
            classes = [poset.class_of_mask[b] for b in blocks]
            classes += [poset.class_of_mask[0]] * (k - len(blocks))
            out.add(tuple(sorted(classes)))
            return
        for i in range(len(blocks)):
            blocks[i] |= 1 << v
            walk(v + 1, blocks)
            blocks[i] ^= 1 << v
        if len(blocks) < k:
            walk(v + 1, blocks + [1 << v])

    walk(0, [])
    return out


@pytest.mark.parametrize("h", [_relabelled(cycle(8), 3)] + [
    _seeded_graph(n, 200 + seed) for seed, n in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8])])
def test_part_class_multisets_match_every_set_partition(h):
    """k = 1..8: on these n <= 8 graphs k >= n reaches every set partition,
    so every block count from 0 (the 0-vertex graph) to n is solved and
    padded."""
    poset = subgraph_poset(h)
    for k in range(1, 9):
        assert part_class_multisets(h, k, poset) == \
            _brute_part_class_multisets(h, k, poset), (h, k)


def _witnessed_multisets(h: Graph, k: int, poset) -> dict:
    """part_class_multisets' search memoised by vertex mask instead of by
    class, so that each multiset keeps one partition of V(h) realizing it:
    a dict from sorted part classes to k block masks (0-padded)."""
    cls = poset.class_of_mask
    memo: dict = {}

    def solve(mask: int, blocks: int) -> dict:
        if mask == 0:
            return {(): ()}
        if blocks == 1:
            return {(cls[mask],): (mask,)}
        got = memo.get((mask, blocks))
        if got is not None:
            return got
        low = mask & -mask
        rest = mask ^ low
        out: dict = {}
        sub = rest
        while True:
            block = sub | low
            for tail, parts in solve(mask ^ block, blocks - 1).items():
                out.setdefault(tuple(sorted(tail + (cls[block],))), parts + (block,))
            if sub == 0:
                break
            sub = (sub - 1) & rest
        memo[(mask, blocks)] = out
        return out

    pad = cls[0]
    return {tuple(sorted(t + (pad,) * (k - len(t)))): parts + (0,) * (k - len(parts))
            for t, parts in solve((1 << h.n) - 1, k).items()}


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_every_part_class_multiset_has_a_witness_partition(n):
    """The class-memoised multisets are exactly those of a search memoised
    by vertex mask, and the partition that search keeps for each one is
    disjoint, covers V(h) and has the multiset's classes, named by their
    canonical keys.  C12 at k = 5 has 1542 multisets and takes about 1 s;
    C14 at k = 6 (6086) matched too, but took 14-16 CPU s and 228 MB
    (Python 3.11), so it is left out."""
    h = cycle(n)
    k = n // 2 - 1
    poset = subgraph_poset(h)
    witnessed = _witnessed_multisets(h, k, poset)
    assert set(witnessed) == part_class_multisets(h, k, poset)
    assert len(witnessed) == {6: 8, 8: 63, 10: 346, 12: 1542}[n]
    class_of_key = {canonical_key(r): c for c, r in enumerate(poset.reps)}
    for ms, blocks in witnessed.items():
        assert len(blocks) == k
        assert sum(b.bit_count() for b in blocks) == h.n
        covered = 0
        for b in blocks:
            covered |= b
        assert covered == (1 << h.n) - 1
        assert tuple(sorted(class_of_key[canonical_key(h.induced(b))]
                            for b in blocks)) == ms


SPLIT_GRAPHS = (
    [cycle(n) for n in range(3, 13)]
    + [random_graph(n, random.Random(100 + seed).getrandbits(n * (n - 1) // 2))
       for seed, n in enumerate(list(range(1, 9)) * 4)]
)


def test_split_test_matches_the_empty_constraint():
    """c clique slots and k - c stable slots have an assignment no slot
    can reject, the empty constraint, exactly when V(h) splits into c
    cliques and k - c stable sets."""
    for h in SPLIT_GRAPHS:
        poset = subgraph_poset(h)
        for k in range(1, 6):
            multisets = part_class_multisets(h, k, poset)
            for c in range(k + 1):
                types = ("C",) * c + ("S",) * (k - c)
                constraints = _build_constraints(poset, multisets, types)
                assert (constraints == [frozenset()]) == splits_into(h, c, k - c), \
                    (h, k, c)


def _constraints_of_every_ordering(poset, multisets, types) -> list[frozenset]:
    """The reference builder: the constraint of every ordering of every
    multiset, then the ones no other constraint lies inside."""
    hit = []
    for i, t in enumerate(types):
        protected = poset.classes_in(FamilySpec.named("clique" if t == "C" else "stable"))
        hit.append([frozenset((i, p) for p in range(len(poset.reps))
                              if below >> p & 1 and not protected >> p & 1)
                    for below in poset.below])
    constraints = set()
    for ms in multisets:
        for assign in set(itertools.permutations(ms)):
            constraints.add(frozenset().union(
                *[row[c] for row, c in zip(hit, assign)]))
    kept = []
    for c in sorted(constraints, key=len):
        if not any(other <= c for other in kept):
            kept.append(c)
    return kept


def test_constraints_match_every_ordering():
    """The kept constraints are those of the reference builder, in order of
    size and then of their (slot, class) pairs, largest first.  Every type
    tuple is tried on graphs with at most 8 vertices, and the tuples the
    enumerator passes (clique slots first) on the larger cycles."""
    for h in SPLIT_GRAPHS:
        poset = subgraph_poset(h)
        for k in range(1, 6):
            multisets = part_class_multisets(h, k, poset)
            if h.n <= 8:
                tuples = list(itertools.product("CS", repeat=k))
            else:
                tuples = [("C",) * c + ("S",) * (k - c) for c in range(k + 1)]
            for types in tuples:
                got = _build_constraints(poset, multisets, types)
                want = _constraints_of_every_ordering(poset, multisets, types)
                assert len(got) == len(want) and set(got) == set(want), (h, types)
                assert got == sorted(got, key=lambda c: (
                    len(c), [(-i, -p) for i, p in sorted(c)]))


def test_c12_search_node_count_is_pinned():
    """The budget counts MMCS nodes, and their number follows the order of
    the kept constraints: C12 with k = 5 takes 3584 of them."""
    h = cycle(12)
    assert len(enumerate_really_canonical_sequences(h, 5, budget=3584)) == 31
    with pytest.raises(BudgetExhausted, match="3583 search nodes used"):
        enumerate_really_canonical_sequences(h, 5, budget=3583)


def test_no_poset_when_no_slot_type_can_witness(monkeypatch):
    """wpn(C12) = 5, so every type vector of 6 slots splits C12 and the
    enumeration ends before the subgraph poset is built."""
    def refuse(h):
        raise AssertionError("subgraph_poset called")

    monkeypatch.setattr(wpnlab.sequences, "subgraph_poset", refuse)
    assert enumerate_really_canonical_sequences(cycle(12), 6) == []


def test_c3_enumeration_contains_double_stable():
    seqs = enumerate_really_canonical_sequences(cycle(3), 2)
    found = False
    for s in seqs:
        keys = [tuple(canonical_key(p) for p in f.patterns) for f in s.parts]
        if all(k == (canonical_key(clique(2)),) for k in keys):
            found = True
    assert found


def test_c6_enumeration_properties():
    g = cycle(6)
    seqs = enumerate_really_canonical_sequences(g, 2)
    assert len(seqs) > 0
    seen = set()
    for s in seqs:
        assert find_certificate(g, s) is None
        assert is_really_canonical(s)
        norm = tuple(sorted(tuple(canonical_key(p) for p in f.patterns)
                            for f in s.parts))
        assert norm not in seen  # no duplicates up to slot reordering
        seen.add(norm)
        # minimality: dropping any single pattern breaks witnessing
        for i, f in enumerate(s.parts):
            for j in range(len(f.patterns)):
                smaller = list(f.patterns[:j] + f.patterns[j + 1:])
                parts = list(s.parts)
                if smaller:
                    parts[i] = FamilySpec.forbidden(smaller)
                else:
                    continue  # empty basis = all graphs, trivially breaks
                assert find_certificate(g, WitnessSequence(tuple(parts))) is not None
        # bases are antichains
        from wpnlab.graphs import contains_induced
        for f in s.parts:
            ps = f.patterns
            assert not any(p is not q and contains_induced(p, q)
                           for p in ps for q in ps)


def _brute_minimal_sequences(h: Graph, k: int) -> set:
    """The minimal really canonical witnessing k-sequences of h, up to slot
    order, from every multiset of k antichains of nonempty induced-subgraph
    classes of h.  Witnessing is checked over all k^n assignments of
    vertices to slots, with no poset and no certificate search."""
    reps: dict = {}
    class_of = []
    for mask in range(1 << h.n):
        key = canonical_key(h.induced(mask))
        reps.setdefault(key, h.induced(mask))
        class_of.append(key)
    keys = sorted(key for key in reps if key[0] > 0)
    contains = {(big, small): small[0] <= big[0] and
                contains_induced(reps[big], reps[small])
                for big in reps for small in keys}

    def is_clique(key) -> bool:
        return reps[key].edge_count() == key[0] * (key[0] - 1) // 2

    antichains = []

    def grow(i: int, chosen: tuple) -> None:
        if i == len(keys):
            # really canonical: not both a clique and a stable pattern
            if not (any(map(is_clique, chosen))
                    and any(reps[p].edge_count() == 0 for p in chosen)):
                antichains.append(chosen)
            return
        grow(i + 1, chosen)
        p = keys[i]
        if not any(contains[p, q] or contains[q, p] for q in chosen):
            grow(i + 1, chosen + (p,))

    grow(0, ())
    # gets[i][mask]: bitset of the assignments that put exactly mask in slot i
    gets = [[0] * (1 << h.n) for _ in range(k)]
    for a, slot_of in enumerate(itertools.product(range(k), repeat=h.n)):
        masks = [0] * k
        for v, i in enumerate(slot_of):
            masks[i] |= 1 << v
        for i, mask in enumerate(masks):
            gets[i][mask] |= 1 << a

    def allowed(i: int, basis: tuple) -> int:
        """The assignments whose slot-i part avoids every pattern of basis."""
        out = 0
        for mask in range(1 << h.n):
            if not any(contains[class_of[mask], p] for p in basis):
                out |= gets[i][mask]
        return out

    def witnessing(seq) -> bool:
        every = (1 << k ** h.n) - 1
        for i, basis in enumerate(seq):
            every &= allowed(i, basis)
        return every == 0

    table = [[allowed(i, basis) for basis in antichains] for i in range(k)]
    found = set()

    def walk(start: int, seq: tuple, every: int) -> None:
        """Extend seq by antichains from index start on, in slot order, so
        each multiset is met once; every holds the assignments still allowed."""
        i = len(seq)
        for a in range(start, len(antichains)):
            rest = every & table[i][a]
            if i + 1 < k:
                walk(a, seq + (antichains[a],), rest)
            elif rest == 0:
                full = seq + (antichains[a],)
                if not any(witnessing(full[:j] + (basis[:q] + basis[q + 1:],)
                                      + full[j + 1:])
                           for j, basis in enumerate(full)
                           for q in range(len(basis))):
                    found.add(tuple(sorted(full)))

    walk(0, (), (1 << k ** h.n) - 1)
    return found


ORACLE_CASES = (
    [(cycle(n), 2) for n in range(3, 9)] + [(path(4), 2), (path(5), 2)]
    + [(_seeded_graph(n, 300 + 3 * n + k), k) for n in range(1, 7) for k in range(1, 4)]
    # random graphs of wpn 3, so that k = 3 has sequences
    + [(_seeded_graph(n, seed), 3) for n, seed in ((5, 413), (5, 458), (6, 403),
                                                  (6, 405), (6, 412))]
)


@pytest.mark.parametrize("h, k", ORACLE_CASES)
def test_sequences_match_the_brute_force_oracle(h, k):
    """No minimal really canonical witnessing sequence is missing, and
    none is extra or repeated."""
    seqs = enumerate_really_canonical_sequences(h, k)
    got = [tuple(sorted(tuple(sorted(canonical_key(p) for p in f.patterns))
                        for f in s.parts)) for s in seqs]
    assert len(got) == len(set(got))
    assert set(got) == _brute_minimal_sequences(h, k), (h, k)


def test_budget_exhaustion_is_loud():
    with pytest.raises(BudgetExhausted, match="5 search nodes used of a budget of 5"):
        enumerate_really_canonical_sequences(cycle(6), 2, budget=5)


def test_k_at_least_the_vertex_count_has_no_sequences():
    """Once k >= n every slot type vector splits V(h) into singletons, as
    the loop over type vectors finds, so the enumeration answers [] before
    it; below n the answer is the loop's."""
    graphs = [cycle(n) for n in range(3, 9)] + [
        _seeded_graph(n, 500 + n) for n in range(9)]
    for h in graphs:
        for k in range(1, h.n + 3):
            every_type_splits = all(splits_into(h, c, k - c) for c in range(k + 1))
            assert every_type_splits or k < h.n, (h, k)
            assert (enumerate_really_canonical_sequences(h, k) == []) == \
                every_type_splits, (h, k)


def _brute_minimal_hitting_sets(edges, universe):
    """Each subset of the universe that hits every edge while no subset
    with one element fewer does."""
    def hits(s) -> bool:
        return all(s & e for e in edges)

    found = set()
    for r in range(len(universe) + 1):
        for s in itertools.combinations(universe, r):
            s = frozenset(s)
            if hits(s) and not any(hits(s - {x}) for x in s):
                found.add(s)
    return found


def _hitting_sets_within_an_exact_budget(edges, types) -> tuple[list, int]:
    """The yielded sets and the nodes used, after checking that a budget of
    exactly those nodes yields the same sets and one node less raises."""
    nodes = [0, 10 ** 6]
    got = list(_minimal_hitting_sets(edges, nodes, types))
    used = nodes[0]
    assert list(_minimal_hitting_sets(edges, [0, used], types)) == got
    with pytest.raises(BudgetExhausted,
                       match=f"^sequence enumeration budget exhausted: {used - 1} "
                             f"search nodes used of a budget of {used - 1}$"):
        list(_minimal_hitting_sets(edges, [0, used - 1], types))
    return got, used


def test_minimal_hitting_sets_match_brute_force():
    """With every slot of its own type there is no symmetry to break, and
    every minimal hitting set is yielded once."""
    rng = random.Random(8)
    for trial in range(300):
        universe = [(i, 0) for i in range(rng.randint(1, 8))]
        types = tuple(str(i) for i in range(len(universe)))
        edges = [frozenset(e for e in universe if rng.random() < 0.4)
                 for _ in range(rng.randint(1, 7))]
        edges = [e for e in edges if e] or [frozenset(universe)]
        got, _ = _hitting_sets_within_an_exact_budget(edges, types)
        assert len(got) == len(set(got)), edges          # each yielded once
        assert set(got) == _brute_minimal_hitting_sets(edges, universe), edges


def _slot_contents(hs, k: int) -> list[int]:
    """J_i for each slot i: the classes the set puts in slot i, class p as
    bit p."""
    out = [0] * k
    for i, p in hs:
        out[i] |= 1 << p
    return out


def _type_preserving_permutations(types):
    return [perm for perm in itertools.permutations(range(len(types)))
            if all(types[perm[i]] == t for i, t in enumerate(types))]


def test_minimal_hitting_sets_yield_each_slot_orbit_once():
    """Random constraint families over (slot, class) pairs, closed under
    permuting slots of one type: each orbit of the brute-force minimal
    hitting sets is yielded exactly once, as its member whose same-type
    slot contents are non-increasing.  Some of the families let the search
    skip subtrees that the reference MMCS walks."""
    rng = random.Random(29)
    skipped = 0
    for trial in range(250):
        k = rng.randint(1, 4)
        classes = rng.randint(1, 3 if k < 4 else 2)
        types = tuple(rng.choice("CS") for _ in range(k))
        perms = _type_preserving_permutations(types)
        universe = [(i, p) for i in range(k) for p in range(classes)]
        edges = set()
        for _ in range(rng.randint(1, 4)):
            e = frozenset(x for x in universe if rng.random() < 0.35) \
                or frozenset([rng.choice(universe)])
            edges.update(frozenset((perm[i], p) for i, p in e) for perm in perms)
        edges = sorted(edges, key=lambda c: (len(c), sorted(c)))

        def image(hs, perm):
            return frozenset((perm[i], p) for i, p in hs)

        def leads(hs) -> bool:
            js = _slot_contents(hs, k)
            return all(js[i] >= js[j] for i, j in itertools.combinations(range(k), 2)
                       if types[i] == types[j])

        brute = _brute_minimal_hitting_sets(edges, universe)
        orbits = {frozenset(image(hs, perm) for perm in perms) for hs in brute}
        got, used = _hitting_sets_within_an_exact_budget(edges, types)
        assert len(got) == len(set(got)) == len(orbits), (types, edges)
        for orbit in orbits:
            leaders = [hs for hs in orbit if leads(hs)]
            assert len(leaders) == 1
            assert leaders[0] in got, (types, edges)
        unpruned = [0, 10 ** 6]
        list(_unpruned_minimal_hitting_sets(edges, unpruned))
        assert used <= unpruned[0]
        skipped += used < unpruned[0]
    assert skipped >= 10


def _unpruned_minimal_hitting_sets(constraints, nodes):
    """The reference MMCS: the search of _minimal_hitting_sets without the
    symmetry breaking, which yields every minimal hitting set once and so
    every slot relabelling of a sequence."""
    index: dict = {}
    for ci, c in enumerate(constraints):
        for e in c:
            index[e] = index.get(e, 0) | 1 << ci
    cand = set(index)

    def solve(chosen: dict, uncov: int):
        nodes[0] += 1
        if not uncov:
            yield frozenset(chosen)
            return
        ci = (uncov & -uncov).bit_length() - 1
        branch = sorted(cand & constraints[ci])
        cand.difference_update(branch)
        for e in branch:
            hits = index[e]
            new_crit = {}
            for v, crit in chosen.items():
                crit &= ~hits
                if not crit:
                    break
                new_crit[v] = crit
            else:
                new_crit[e] = hits & uncov
                yield from solve(new_crit, uncov & ~hits)
            cand.add(e)

    yield from solve({}, (1 << len(constraints)) - 1)


def _ids(hitting_sets, k: int) -> set:
    """The sorted slots of sorted class ids of each hitting set: its
    sequence up to slot order."""
    out = set()
    for hs in hitting_sets:
        slots: list[list[int]] = [[] for _ in range(k)]
        for i, p in hs:
            slots[i].append(p)
        out.add(tuple(sorted(tuple(sorted(js)) for js in slots)))
    return out


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_pruned_search_finds_the_sequences_of_the_unpruned_one(n):
    """On C_n at k = wpn, for each slot type vector the enumeration
    searches, the symmetry-broken MMCS finds the class ids of the reference
    MMCS, in no more nodes."""
    h = cycle(n)
    k = n // 2 - 1
    poset, multisets = wpnlab.sequences._tables(h, k)
    searched = 0
    for c in range(k + 1):
        if splits_into(h, c, k - c):
            continue
        searched += 1
        types = ("C",) * c + ("S",) * (k - c)
        constraints = _build_constraints(poset, multisets, types)
        pruned, unpruned = [0, 10 ** 7], [0, 10 ** 7]
        got = _ids(_minimal_hitting_sets(constraints, pruned, types), k)
        assert got == _ids(_unpruned_minimal_hitting_sets(constraints, unpruned), k)
        assert pruned[0] <= unpruned[0], (n, types)
    assert searched


def test_case_one_is_the_theorem_sequence_with_cliques_widened():
    """The case lists of C6..C16, as they were written out per cycle length."""
    cot = "cliques-or-tiny"
    assert wpnlab.sequences._cases(3) == [
        ("co-girth-5", "stable"), ("cograph", "cliques-and-stables"),
        ("complete-multipartite", "clique-or-co-star"),
        ("co-matching", "clique-union-stable")]
    assert wpnlab.sequences._cases(4) == [
        ("split-join-components-co", cot, cot),
        ("cliques-and-stables", cot, "co-matching")]
    assert wpnlab.sequences._cases(5) == [("stars-cliques-co",) + (cot,) * 3]
    for l in (6, 7, 8):
        assert wpnlab.sequences._cases(l) == [("stars-triangles-co",) + (cot,) * (l - 2)]


def test_classify_named_theorem_sequences():
    from wpnlab.witnessing import theorem_sequence

    assert classify_sequence(cycle(6), theorem_sequence("c6")) == "case1"
    assert classify_sequence(cycle(8), theorem_sequence("c8")) == "case1"
    assert classify_sequence(cycle(10), theorem_sequence("c10")) == "case1"
    assert classify_sequence(cycle(12), theorem_sequence("c2l:6")) == "case1"
    assert classify_sequence(cycle(14), theorem_sequence("c2l:7")) == "case1"
    assert classify_sequence(cycle(16), theorem_sequence("c2l:8")) == "case1"


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_class_level_witness_check_matches_the_vertex_search(n):
    """classify_sequence's check over the poset and the multisets agrees
    with the exhaustive vertex-level search on every enumerated sequence
    of C_n at k = wpn, and on every one weakened by dropping one pattern
    from one basis, which minimality makes non-witnessing."""
    from wpnlab.witnessing import wpn

    h = cycle(n)
    k = wpn(h)
    seqs = enumerate_really_canonical_sequences(h, k)
    assert seqs
    for s in seqs:
        assert wpnlab.sequences._is_witnessing(h, s)
        assert find_certificate(h, s) is None
        for i, f in enumerate(s.parts):
            for j in range(len(f.patterns)):
                smaller = f.patterns[:j] + f.patterns[j + 1:]
                if not smaller:
                    continue
                parts = list(s.parts)
                parts[i] = FamilySpec.forbidden(smaller)
                weak = WitnessSequence(tuple(parts))
                assert not wpnlab.sequences._is_witnessing(h, weak)
                assert find_certificate(h, weak) is not None


def test_member_is_asked_once_per_family_and_class(monkeypatch):
    """Enumerating and classifying C12 at k = 5 asks member about each of
    its 78 classes once per distinct family: the clique and stable
    families the enumeration protects and the 8 families its 31 sequences
    hold, however many sequences share one."""
    asked = []

    def spy(f, g):
        asked.append(f)
        return wpnlab.families.member(f, g)

    monkeypatch.setattr(wpnlab.sequences, "member", spy)
    wpnlab.sequences._tables.cache_clear()
    h = cycle(12)
    seqs = enumerate_really_canonical_sequences(h, 5)
    for s in seqs:
        classify_sequence(h, s)
    families = {f for s in seqs for f in s.parts}
    families |= {FamilySpec.named("clique"), FamilySpec.named("stable")}
    assert len(seqs) == 31 and len(families) == 10
    classes = len(wpnlab.sequences._tables(h, 5)[0].reps)
    assert classes == 78 and len(asked) == 780
    assert Counter(asked) == {f: classes for f in families}


def test_each_case_target_inclusion_is_decided_once(monkeypatch):
    """Classifying C12's 31 sequences asks family_subset 310 times, for
    (family, case target) pairs its cache decides once each."""
    asked = []
    cached = wpnlab.sequences.family_subset

    def spy(a, b):
        asked.append((a, b))
        return cached(a, b)

    monkeypatch.setattr(wpnlab.sequences, "family_subset", spy)
    h = cycle(12)
    seqs = enumerate_really_canonical_sequences(h, 5)
    cached.cache_clear()
    for s in seqs:
        classify_sequence(h, s)
    info = cached.cache_info()
    assert len(asked) == 310 and len(set(asked)) <= 16
    assert (info.misses, info.hits) == (len(set(asked)), len(asked) - len(set(asked)))


def test_classify_caps_the_graph_before_building_tables(monkeypatch):
    from wpnlab.witnessing import theorem_sequence

    def boom(*args):
        raise RuntimeError("no table may be built past the cap")

    monkeypatch.setattr(wpnlab.sequences, "subgraph_poset", boom)
    monkeypatch.setattr(wpnlab.sequences, "classifiable", boom)
    with pytest.raises(ValueError, match="at most 16 vertices"):
        classify_sequence(cycle(18), theorem_sequence("c2l:9"))


def test_classify_all_clique_sequence_for_c6():
    # [Clique, Clique] is witnessing for C6 (no partition into two cliques
    # exists) and its families are cograph-and-(cliques or stables) shaped
    seq = WitnessSequence((FamilySpec.named("clique"),) * 2)
    assert find_certificate(cycle(6), seq) is None
    assert classify_sequence(cycle(6), seq) == "case2"


def test_classify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_sequence(path(4), WitnessSequence((FamilySpec.named("stable"),) * 2))
    with pytest.raises(ValueError):  # wrong arity
        classify_sequence(cycle(6), WitnessSequence((FamilySpec.named("stable"),) * 3))
    with pytest.raises(ValueError):  # not witnessing: C6 is bipartite
        classify_sequence(cycle(6), WitnessSequence((FamilySpec.named("stable"),) * 2))


def test_c6_stable_large_family_sequence_is_case2():
    """(Forb{E3,2K2,P4}, all cliques and stable sets) witnesses C6; its
    second family contains arbitrarily large stable sets, so case 2 must
    admit stable sets beyond E2."""
    twok2 = clique(2).disjoint_union(clique(2))
    f1 = FamilySpec.forbidden([empty(3), twok2, path(4)])
    f2 = FamilySpec.forbidden([path(3), path(3).complement()])
    seq = WitnessSequence((f1, f2))
    assert find_certificate(cycle(6), seq) is None
    assert is_really_canonical(seq)
    assert classify_sequence(cycle(6), seq) == "case2"
