"""Enumeration and classification of really canonical witnessing sequences.

The witnessing property of a sequence (F_1,...,F_k) against H depends only
on which isomorphism classes of induced subgraphs of H each family keeps.
We therefore work over the finite poset of those classes: a sequence is a
k-tuple of forbidden antichains J_i, and "witnessing" means every
realizable assignment of part-classes to slots is rejected somewhere.
That turns minimal-sequence enumeration into minimal hitting set
enumeration (MMCS), which is exact and fast at cycle scale.

The poset is built from h's symmetry and its one-vertex deletions alone.
Masks in one Aut(h)-orbit induce isomorphic subgraphs, so only the least
mask of each orbit is canonically labelled (224 masks of C12's 4096).
Each class's first mask is such a least mask, so the classes keep the
numbering that labelling every mask gives.  The classes below a class
are the closure of the classes of its first mask's one-vertex deletions,
so no containment test is made.

The realizable multisets of part classes are solved for each exact number
of blocks, memoised by that number and the class of the vertex set being
split, since isomorphic vertex sets split into the same multisets; for
the same reason one rest is solved per pair of classes of the block and
of the rest, and the tails of the rests of one class of block are pooled
before that class is added to them.  Slots of one type are
interchangeable, so the constraints are built once per multiset and
choice of the classes on the clique slots, not once per ordering; only
the minimal ones are expanded over the slot permutations.  MMCS
branches on the first uncovered constraint in an order defined by their
content alone, so that order fixes its node count (the budget's unit);
the hitting sets it yields do not depend on it.  A split of V(h) into c
cliques and k - c stable sets is an assignment that c clique slots and
k - c stable slots cannot reject, so only the slot types that
splits_into finds no split for are searched, and no poset is built when
there are none; once k >= h.n singletons split V(h) for every type, and
no split is sought.  The constraints are closed under permuting slots of
one type, and MMCS yields one hitting set per orbit of those
permutations: the one whose same-type slots hold non-increasing class
masks, with the subtrees that hold no such set skipped.  A sequence can
still come out under two slot-type vectors, so it is built only for the
first hitting set with its class ids.

Each cycle C_{2l} has a case list of slot targets.  Case 1 is the theorem's
own sequence for C_{2l} with each clique slot widened to cliques-or-tiny;
the later cases of C6 and C8 are written out.  A sequence is in a case when
some bijection of its families onto the case's slots puts each family
inside its slot's target, and it takes the first case it is in.  Before
that, each sequence is checked to be witnessing over the same poset and
multisets that the enumeration built: no multiset can give its classes to
the slots one each, with each class in its slot's family.  A multiset
with a class in none of the families is passed over before its slots are
sought.  That check shares neither the constraints nor MMCS with the
enumeration.  Both take the classes in a family (clique, stable, or a
slot's) from one table on the poset, which asks member once per family
and class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .families import FamilySpec, _subset_orbits, family_subset, member
from .graphs import Graph, _canon_cached, bits, canonical_key, clique, cycle, empty, \
    is_isomorphic, path
from .witnessing import BudgetExhausted, WitnessSequence, is_really_canonical, \
    splits_into, theorem_sequence

# The subgraph poset keeps an entry per vertex mask of h and a bitmask of
# the classes below each class.  On the G(16, 1/2) drawn from
# random.Random(16) (an edge for each pair i < j, in order, when random()
# < 0.5; 25715 classes) it took 5.4-6.2 CPU s and 125 MB of max RSS
# (Python 3.11), against 2.1 s and 57 MB on G(15, 1/2) drawn the same way
# from random.Random(15).  With the part-class multisets, the tables of
# that G(16, 1/2) took 5.3-5.5 CPU s and 130 MB at k = 2 and 10.7-11.5 s and
# 900 MB at k = 3 (1566045 multisets); k = 4 ran out of 3 GiB.  The cap
# bounds the tables, not a run: on that G(16, 1/2) a k = 2 run does not
# finish, since the minimality filter of _build_constraints compares each
# of its representatives with every kept one (still running after 234 CPU
# s), and no search budget bounds that filter.
MAX_SEQUENCE_VERTICES = 16
# MMCS search nodes an enumeration may use when no budget is given
DEFAULT_BUDGET = 10_000_000


def _check_size(h: Graph) -> None:
    if h.n > MAX_SEQUENCE_VERTICES:
        raise ValueError(f"sequences supports at most {MAX_SEQUENCE_VERTICES} "
                         f"vertices, got {h.n}")


@dataclass
class SubgraphPoset:
    reps: list[Graph]            # canonical representative per class
    class_of_mask: list[int]     # class id for every vertex subset of h
    below: list[int]             # bit p of below[c] set iff p is induced in c
    _inside: dict = field(default_factory=dict, compare=False, repr=False)

    def classes_in(self, f: FamilySpec) -> int:
        """Bitmask of the classes in f; member is asked once per family."""
        if f not in self._inside:
            self._inside[f] = sum(1 << c for c, g in enumerate(self.reps) if member(f, g))
        return self._inside[f]


def subgraph_poset(h: Graph) -> SubgraphPoset:
    """The classes of induced subgraphs of h, ordered by induced containment.

    Classes are numbered in order of their first vertex mask.  A vertex
    permutation in Aut(h) maps each mask to one inducing an isomorphic
    subgraph, so only the least mask of each Aut(h)-orbit of masks is
    canonically labelled; every other mask takes its orbit's class.  The
    first mask of a class is the least mask of its own orbit, so the
    numbering is the one that labelling every mask would give.

    Every induced subgraph of h[m] is h[s] for some s inside m, and s is
    reached from m by deleting one vertex at a time.  So ``below[c]`` is c
    together with the ``below`` masks of the one-vertex deletions of the
    class's first mask, taken over the classes in order of vertex count:
    a reflexive and transitive closure with no containment test.
    """
    canon = _canon_cached(h.n, h.adj)
    orbit = _subset_orbits(h.n, canon.gens)
    ids: dict = {}
    reps: list[Graph] = []
    first: list[int] = []        # first vertex mask of each class
    class_of_mask = []
    for mask, least in enumerate(orbit):
        if least != mask:
            class_of_mask.append(class_of_mask[least])
            continue
        key = canonical_key(h.induced(mask))
        c = ids.get(key)
        if c is None:
            c = len(reps)
            ids[key] = c
            reps.append(Graph(key[0], key[1]))
            first.append(mask)
        class_of_mask.append(c)
    below = [1 << c for c in range(len(reps))]
    for c in sorted(range(len(reps)), key=lambda c: reps[c].n):
        mask = first[c]
        for v in bits(mask):
            below[c] |= below[class_of_mask[mask ^ 1 << v]]
    return SubgraphPoset(reps=reps, class_of_mask=class_of_mask, below=below)


def part_class_multisets(h: Graph, k: int, poset: SubgraphPoset) -> set[tuple[int, ...]]:
    """Sorted k-tuples of part classes realizable by partitioning V(h) into
    at most k blocks (missing blocks padded with the 0-vertex class).

    Partitions are solved for each exact number of blocks, memoised by
    that number and the class of the mask being split: an isomorphism from
    h[m] to h[m'] maps each partition of m to a partition of m' with the
    same multiset of part classes.  One block is the mask's own class and
    needs no walk over its submasks, two are a block and its rest and need
    no recursion, and no mask splits into more blocks than it has
    vertices.  For the same reason two blocks of one class whose rests
    share a class give the same tails, so one rest is solved per (class of
    block, class of rest) pair, and the tails of all the rests of one class
    of block are pooled before that class is added to each distinct tail.
    """
    cls = poset.class_of_mask
    memo: dict[tuple[int, int], set[tuple[int, ...]]] = {}

    def solve(mask: int, blocks: int):
        """The sorted multisets of part classes of exactly ``blocks``
        blocks that partition mask."""
        if blocks == 0:
            return () if mask else ((),)
        if blocks == 1:
            return ((cls[mask],),)
        if blocks > mask.bit_count():
            return ()
        key = (cls[mask], blocks)
        got = memo.get(key)
        if got is not None:
            return got
        low = mask & -mask
        rest = mask ^ low
        # one rest per (class of block, class of the rest), over the blocks
        # that hold the lowest vertex and leave a nonempty rest
        pairs: dict[tuple[int, int], int] = {}
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            pairs.setdefault((cls[sub | low], cls[rest ^ sub]), rest ^ sub)
        if blocks == 2:  # the block and its rest
            out = {(c, r) if c <= r else (r, c) for c, r in pairs}
        else:
            rests: dict[int, list[int]] = {}
            for (c, _), other in pairs.items():
                rests.setdefault(c, []).append(other)
            out = set()
            for c, others in rests.items():
                tails = set().union(*(solve(o, blocks - 1) for o in others))
                out.update([tuple(sorted(t + (c,))) for t in tails])
        memo[key] = out
        return out

    # the empty mask's class is numbered 0, below every block's class
    return {(cls[0],) * (k - blocks) + t
            for blocks in range(min(k, h.n) + 1) for t in solve((1 << h.n) - 1, blocks)}


@lru_cache(maxsize=1)
def _tables(h: Graph, k: int) -> tuple[SubgraphPoset, set[tuple[int, ...]]]:
    """h's subgraph poset and its part-class multisets for k blocks, built
    once for the enumeration of h's k-sequences and their classification,
    which run one after the other."""
    poset = subgraph_poset(h)
    return poset, part_class_multisets(h, k, poset)


def _distinct_slots(allowed) -> bool:
    """Whether the items can take distinct slots, each item one in its
    slot bitmask of ``allowed``.  ``reach`` holds the sets of slots that
    the items placed so far can fill."""
    reach = {0}
    for free in allowed:
        reach = {used | 1 << i for used in reach for i in bits(free & ~used)}
        if not reach:
            return False
    return True


def _fits(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether some bijection of slots sends each pattern mask of small to
    a mask of big that contains it; empty masks fit anywhere."""
    return _distinct_slots(sum(1 << i for i, b in enumerate(big) if m & ~b == 0)
                           for m in small if m)


def _build_constraints(poset: SubgraphPoset, multisets: set[tuple[int, ...]],
                       types: tuple[str, ...]) -> list[frozenset]:
    """The minimal constraints over every realizable multiset and every
    assignment of its classes to the slots.  The constraint of an
    assignment is the set of (slot, pattern-class) pairs that would reject
    it: the pairs (i, p) with p below slot i's class and allowed in slot i.
    They are sorted by size, then by their sorted pairs compared as
    (-slot, -class), an order fixed by their content alone.

    A constraint depends on a slot only through its type and its pattern
    set, so permuting slots of one type only relabels the slots of a
    constraint.  One representative is built per (multiset, choice of the
    classes that fill the clique slots), as the sorted pattern masks of the
    clique slots and of the stable slots.  Taken in order of size, a
    representative is kept unless a kept one maps into it under a
    type-preserving slot bijection, and only the kept ones are expanded
    over their distinct slot permutations: those expansions are exactly
    the minimal constraints over all assignments.
    """
    protected = {t: poset.classes_in(FamilySpec.named(name))
                 for t, name in (("C", "clique"), ("S", "stable"))}
    pattern = {t: [below & ~protected[t] for below in poset.below] for t in protected}
    at = {t: [i for i, u in enumerate(types) if u == t] for t in pattern}
    reps: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for ms in multisets:
        for chosen in itertools.combinations(range(len(ms)), len(at["C"])):
            reps.add((tuple(sorted(pattern["C"][ms[i]] for i in chosen)),
                      tuple(sorted(pattern["S"][c] for i, c in enumerate(ms)
                                   if i not in chosen))))

    def size(rep) -> int:
        return sum(m.bit_count() for part in rep for m in part)

    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for rep in sorted(reps, key=size):
        if not any(_fits(c, rep[0]) and _fits(s, rep[1]) for c, s in kept):
            kept.append(rep)
    constraints = {
        frozenset((i, p) for i, m in zip(at["C"] + at["S"], c + s) for p in bits(m))
        for rc, rs in kept
        for c in set(itertools.permutations(rc))
        for s in set(itertools.permutations(rs))}
    return sorted(constraints, key=lambda c: (
        len(c), [(-i, -p) for i, p in sorted(c)]))


def _minimal_hitting_sets(constraints: list[frozenset], nodes: list[int],
                          types: tuple[str, ...]):
    """Yield one minimal hitting set per orbit of the permutations of
    same-type slots: MMCS (Murakami & Uno, *Discrete Applied Math.* 170,
    2014) with criticality pruning, the candidate set, and lex-leader
    symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR 1996).  The
    elements are (slot, class) pairs, and ``types`` gives each slot's type.

    A node branches on the elements of the uncovered constraint of least
    index that are still candidates; those leave the candidate set, and
    each returns to it after its own branch, so a set is built only in the
    branch of its last element in that constraint, and every minimal
    hitting set is built once.  The hitting sets do not depend on the
    order of the list, but the node count is fixed by it.
    _build_constraints sorts by size, so the constraint branched on is
    always a smallest uncovered one.

    The constraints are closed under permuting slots of one type, so the
    minimal hitting sets fall into orbits under those permutations.  Read
    the classes a set puts in slot i as an integer J_i, class p as bit p.
    Each orbit has exactly one member whose same-type slots have
    non-increasing J (sort them), and only that member is yielded.
    ``have[i]`` holds the classes chosen for slot i and ``reach[i]`` those
    (i, p) still candidates; a set built below a node adds candidates of
    that node only.  So if have[j] > have[i] | reach[i] for same-type
    slots i < j, every set below has J_j >= have[j] > have[i] | reach[i]
    >= J_i, no non-increasing member lies there, and the child is
    skipped.  As each orbit's non-increasing member is built once and
    never skipped, every orbit comes out exactly once.  With no two slots
    of one type this is the plain search.

    The uncovered constraints, the constraints each element hits and the
    critical constraints of each chosen element (those it alone hits) are
    bitmasks over constraint indices.  A branch stops building the new
    critical sets at the first one it empties.

    ``nodes`` is [search nodes used, budget], shared across calls; going
    past the budget raises BudgetExhausted.
    """
    index: dict = {}
    for ci, c in enumerate(constraints):
        for e in c:
            index[e] = index.get(e, 0) | 1 << ci
    cand = set(index)
    pairs = [(i, j) for i, j in itertools.combinations(range(len(types)), 2)
             if types[i] == types[j]]
    have = [0] * len(types)
    reach = [0] * len(types)
    for i, p in cand:
        reach[i] |= 1 << p

    def solve(chosen: dict, uncov: int):
        if nodes[0] == nodes[1]:
            raise BudgetExhausted(
                f"sequence enumeration budget exhausted: {nodes[0]} search "
                f"nodes used of a budget of {nodes[1]}")
        nodes[0] += 1
        if not uncov:
            if all(have[i] >= have[j] for i, j in pairs):
                yield frozenset(chosen)
            return
        ci = (uncov & -uncov).bit_length() - 1
        branch = sorted(cand & constraints[ci])
        cand.difference_update(branch)
        for i, p in branch:
            reach[i] &= ~(1 << p)
        for e in branch:
            i, p = e
            hits = index[e]
            new_crit = {}
            for v, crit in chosen.items():
                crit &= ~hits
                if not crit:  # e makes an earlier pick redundant
                    break
                new_crit[v] = crit
            else:
                have[i] |= 1 << p
                if not any(have[b] > have[a] | reach[a] for a, b in pairs):
                    new_crit[e] = hits & uncov
                    yield from solve(new_crit, uncov & ~hits)
                have[i] ^= 1 << p
            cand.add(e)
            reach[i] |= 1 << p

    yield from solve({}, (1 << len(constraints)) - 1)


def enumerate_really_canonical_sequences(
    h: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> list[WitnessSequence]:
    """All minimal really canonical witnessing k-sequences for h, with
    forbidden bases drawn from the induced-subgraph classes of h, up to
    reordering of the k slots.

    Minimal means removing any pattern from any basis breaks the witnessing
    property; minimality forces each basis to be an antichain.  Raises
    BudgetExhausted (distinct from returning an empty list) when the search
    budget runs out, and ValueError for a budget below 0, which the search
    would never reach.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    _check_size(h)
    # singletons split V(h) into any c cliques and k - c stable sets once
    # k >= h.n, so no slot types can witness; answering that before the
    # loop saves a splits_into per type vector
    if k >= h.n:
        return []
    # c clique slots and k - c stable slots can witness only when V(h) has
    # no split into c cliques and k - c stable sets
    slot_cliques = [c for c in range(k + 1) if not splits_into(h, c, k - c)]
    if not slot_cliques:
        return []
    poset, multisets = _tables(h, k)
    nodes = [0, budget]
    # a class id names one isomorphism class, so the sorted slots of sorted
    # class ids key a sequence up to slot order
    solutions: dict[tuple, WitnessSequence] = {}
    for c in slot_cliques:
        types = ("C",) * c + ("S",) * (k - c)
        constraints = _build_constraints(poset, multisets, types)
        for hs in _minimal_hitting_sets(constraints, nodes, types):
            slots: list[list[int]] = [[] for _ in range(k)]
            for (i, p) in hs:
                slots[i].append(p)
            ids = tuple(sorted(tuple(sorted(js)) for js in slots))
            if ids not in solutions:
                solutions[ids] = WitnessSequence(tuple(sorted(
                    (FamilySpec.forbidden(poset.reps[p] for p in js) for js in ids),
                    key=_basis_key)))
    return sorted(solutions.values(), key=lambda s: [_basis_key(f) for f in s.parts])


def _basis_key(f: FamilySpec) -> tuple:
    return tuple(canonical_key(p) for p in f.patterns)


# -- classification into the structural case lists ----------------------------


@lru_cache(maxsize=None)
def _target(name: str) -> FamilySpec:
    p3 = path(3)
    cop3 = p3.complement()
    if name == "cliques-or-tiny":
        # cliques plus every graph on <= 2 vertices
        return FamilySpec.forbidden([empty(3), p3, cop3])
    if name == "cliques-and-stables":
        return FamilySpec.forbidden([p3, cop3])
    if name == "clique-or-co-star":
        # cliques plus complements of stars (a clique and an isolated vertex)
        return FamilySpec.forbidden(
            [empty(3), p3, clique(2).disjoint_union(clique(2))])
    return FamilySpec.named(name)


# The cases after case 1 of C_{2l}, keyed by l, as target families per slot.
# Case 2 of C6 admits stable sets of any size in its second family (as in
# the C8 case list): e.g. (Forb{E3,2K2,P4}, cliques-and-stables) is
# witnessing and really canonical, and fits no narrower case.
_LATER_CASES = {
    3: [("cograph", "cliques-and-stables"),
        ("complete-multipartite", "clique-or-co-star"),
        ("co-matching", "clique-union-stable")],
    4: [("cliques-and-stables", "cliques-or-tiny", "co-matching")],
}


def _cases(l: int) -> list[tuple[str, ...]]:
    """The case list of C_{2l}.  Case 1 is the theorem's own sequence with
    each clique slot widened to cliques-or-tiny."""
    theorem = f"c{2 * l}" if l <= 5 else f"c2l:{l}"
    first = tuple("cliques-or-tiny" if f.name == "clique" else f.name
                  for f in theorem_sequence(theorem).parts)
    return [first] + _LATER_CASES.get(l, [])


def _in_case(fams: tuple[FamilySpec, ...], slots: tuple[str, ...]) -> bool:
    """Whether some bijection of the families onto the slots puts each
    family inside its slot's target."""
    inside = {t: [family_subset(f, _target(t)) for f in fams] for t in set(slots)}
    return _distinct_slots(sum(1 << j for j, t in enumerate(slots) if inside[t][i])
                           for i in range(len(fams)))


def classifiable(h: Graph, k: int) -> bool:
    """Whether classify_sequence takes k-sequences for h: h is an even
    cycle C_{2l} with l >= 3 and k is the arity of its case list.  Each
    case gives the k families one slot each, so no other k can match; the
    arity is l - 1 = wpn(C_{2l})."""
    return (h.n >= 6 and h.n % 2 == 0 and is_isomorphic(h, cycle(h.n))
            and k == len(_cases(h.n // 2)[0]))


def _is_witnessing(h: Graph, seq: WitnessSequence) -> bool:
    """Whether no realizable multiset of part classes of h can give its
    classes to the slots of seq one each, with each class inside its
    slot's family.  The classes in each family are read from the poset's
    table, which asks member once per family and class over all sequences.
    A multiset with a class that no slot's family holds cannot be placed,
    so it is skipped before its slot masks are built; the rest are tested
    once per distinct sorted tuple of slot masks."""
    poset, multisets = _tables(h, len(seq))
    inside = [poset.classes_in(f) for f in seq.parts]
    allowed = [sum(1 << i for i, m in enumerate(inside) if m >> c & 1)
               for c in range(len(poset.reps))]
    nowhere = {c for c, slots in enumerate(allowed) if not slots}
    return not any(_distinct_slots(slots) for slots in
                   {tuple(sorted(map(allowed.__getitem__, ms))) for ms in multisets
                    if nowhere.isdisjoint(ms)})


def classify_sequence(h: Graph, seq: WitnessSequence) -> str:
    """Match a really canonical witnessing wpn(h)-sequence against the
    case list for its cycle, trying the cases in order; 'NoMatch' would
    falsify the classification.  Graphs past MAX_SEQUENCE_VERTICES are
    refused first, since the check's tables hold an entry per vertex mask."""
    _check_size(h)
    if not classifiable(h, len(seq)):
        raise ValueError("classification takes wpn(h)-sequences for the even "
                         "cycles C6, C8, C10, C2l")
    if not is_really_canonical(seq):
        raise ValueError("sequence is not really canonical")
    if not _is_witnessing(h, seq):
        raise ValueError("sequence is not witnessing")
    for number, slots in enumerate(_cases(h.n // 2), 1):
        if _in_case(seq.parts, slots):
            return f"case{number}"
    return "NoMatch"
