"""Witnessing partition numbers, witnessing sequences and certificates.

A witnessing k-sequence (F_1,...,F_k) for H is a list of hereditary
families such that no k-partition of V(H) puts every induced part inside
its family; a graph partitioned that way is therefore H-free, and the
partition is a certificate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .families import FamilySpec, basis_of, member
from .graphs import MAX_VERTICES, Graph, bits, canonical_key, clique, cycle, empty, \
    is_isomorphic, path


@dataclass(frozen=True)
class WitnessSequence:
    parts: tuple[FamilySpec, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 1:
            raise ValueError("witnessing sequence needs at least one family")

    def __len__(self) -> int:
        return len(self.parts)


class BudgetExhausted(RuntimeError):
    """Search budget ran out before the enumeration completed."""


# -- wpn ---------------------------------------------------------------------


_CLIQUE = FamilySpec.named("clique")
_STABLE = FamilySpec.named("stable")


def wpn(h: Graph) -> int:
    """Witnessing partition number: the largest c + s such that V(h) has
    no partition into c cliques and s stable sets (0 for K1/K0).

    Parts may be empty, so the least s that works with c cliques never
    grows with c, and wpn is the largest c + s_min(c) - 1.  The search
    walks that staircase from c = 0 with splits_into, so it makes
    O(n) searches, one failing search per c.
    """
    best, s = 0, h.n  # n singleton stable sets always partition V(h)
    for c in range(h.n + 1):
        while s and c + s > 1 and splits_into(h, c, s - 1):
            s -= 1
        if s == 0:
            break
        best = max(best, c + s - 1)
    return best


def splits_into(h: Graph, cliques: int, stables: int) -> bool:
    """True iff V(h) splits into the given numbers of cliques and stable
    sets, parts possibly empty (at least one part in all): find_certificate
    against that sequence of families."""
    return find_certificate(h, WitnessSequence(
        (_CLIQUE,) * cliques + (_STABLE,) * stables)) is not None


# -- sequence validity and certificates --------------------------------------


def find_certificate(g: Graph, seq: WitnessSequence) -> tuple[int, ...] | None:
    """A partition of V(g) with part i inside family i, as one vertex mask
    per slot in the sequence's order (parts may be empty), or None: seq
    is witnessing for g exactly when there is none.

    Backtracking vertex by vertex; heredity makes pruning on the current
    part content sound.  Each probe is ``member`` on the part's vertex
    mask, memoised once per distinct family, so no subgraph is built.
    Clique-family slots are branched first since they prune fastest.  The
    search walks a plan of one tuple per slot in branching order (the
    slot, its previous twin, its family's answers and the family), so a
    probe that was answered before is one dict lookup in the search loop
    itself.

    Without pruning, the search would meet the certificates in
    lexicographic order of their slots' plan positions, vertex 0 first;
    call the first one C*.  The rule below skips only branches that C*
    does not lie in, so the result is C*, found without exploring every
    relabelling of the twins.

    Slots with equal families are twins.  A vertex may open an empty slot
    only when the twin before it in branching order is already filled, so
    among twins the filled slots are always a prefix of that order.  A
    skipped branch is the earlier twin's branch with the two slots' labels
    swapped from this vertex on: swapping turns any certificate in it into
    one that the search meets first, so C* is never in it.
    """
    k = len(seq)
    n = g.n
    order = sorted(range(k), key=lambda i: (0 if seq.parts[i].name == "clique" else 1, i))
    memos: dict[FamilySpec, dict[int, bool]] = {}
    # (slot, its previous twin in branching order or -1, its family's
    # answers, its family), in branching order
    plan = []
    last: dict[FamilySpec, int] = {}
    for i in order:
        f = seq.parts[i]
        plan.append((i, last.get(f, -1), memos.setdefault(f, {}), f))
        last[f] = i
    for _, _, cache, f in plan:
        if 0 not in cache:
            cache[0] = member(f, g, 0)
        if not cache[0]:
            return None
    masks = [0] * k

    def rec(v: int) -> bool:
        if v == n:
            return True
        bit = 1 << v
        for i, twin, cache, f in plan:
            if twin >= 0 and not masks[i] and not masks[twin]:
                continue
            m = masks[i] | bit
            got = cache.get(m)
            if got is None:
                got = cache[m] = member(f, g, m)
            if got:
                masks[i] = m
                if rec(v + 1):
                    return True
                masks[i] = m ^ bit
        return False

    return tuple(masks) if rec(0) else None


# -- the four theorems -------------------------------------------------------


def _theorem_l(theorem: str) -> int:
    """Half the cycle length of theorem 'c6', 'c8', 'c10' or 'c2l:<l>'
    (5 < l <= 32): C_{2l} must be a graph wpnlab holds, and every such
    graph is C_{2l}-free for any larger l."""
    fixed = {"c6": 3, "c8": 4, "c10": 5}
    if theorem in fixed:
        return fixed[theorem]
    # one spelling per theorem, since the id goes into config hashes
    if not re.fullmatch(r"c2l:[1-9][0-9]*", theorem):
        raise ValueError(f"unknown theorem {theorem!r}")
    l = int(theorem[len("c2l:"):])
    if not 5 < l <= MAX_VERTICES // 2:
        raise ValueError(f"c2l theorem requires 5 < l <= {MAX_VERTICES // 2}")
    return l


def theorem_sequence(theorem: str) -> WitnessSequence:
    """The witnessing sequence of theorem 'c6', 'c8', 'c10' or 'c2l:<l>'."""
    l = _theorem_l(theorem)
    if l == 3:
        return WitnessSequence((FamilySpec.named("co-girth-5"), _STABLE))
    head = {4: "split-join-components-co", 5: "stars-cliques-co"}.get(
        l, "stars-triangles-co")
    return WitnessSequence((FamilySpec.named(head),) + (_CLIQUE,) * (l - 2))


def theorem_cycle(theorem: str) -> Graph:
    """The cycle C_{2l} that theorem 'c6', 'c8', 'c10' or 'c2l:<l>' forbids."""
    return cycle(2 * _theorem_l(theorem))


# -- really canonical sequences ----------------------------------------------


def is_really_canonical(seq: WitnessSequence) -> bool:
    """Each family contains all cliques (no basis pattern is a clique) or
    all stable sets (no basis pattern is stable)."""
    for f in seq.parts:
        basis = basis_of(f)
        if any(member(_CLIQUE, p) for p in basis) and \
                any(member(_STABLE, p) for p in basis):
            return False
    return True


# -- exhaustive partition search for the cycle claims ------------------------


def partition_into_parts(g: Graph, parts: list[Graph]) -> list[int] | None:
    """Partition V(g) into parts inducing the given graphs (up to
    isomorphism per part); returns part masks in the caller's order or None.

    The lowest remaining vertex must land in one of the still-unused parts;
    branching only over isomorphism-distinct unused parts kills the symmetry
    between interchangeable parts.
    """
    if sum(p.n for p in parts) != g.n:
        return None
    result = [0] * len(parts)
    nonempty = [i for i, p in enumerate(parts) if p.n > 0]

    def rec(remaining: int, unused: list[int]) -> bool:
        if not unused:
            return True
        low = remaining & -remaining
        pool = bits(remaining & ~low)
        tried: set = set()
        for pos, i in enumerate(unused):
            key = canonical_key(parts[i])
            if key in tried:
                continue
            tried.add(key)
            rest = unused[:pos] + unused[pos + 1:]
            for combo in itertools.combinations(pool, parts[i].n - 1):
                mask = low | sum(1 << v for v in combo)
                if is_isomorphic(g.induced(mask), parts[i]):
                    result[i] = mask
                    if rec(remaining ^ mask, rest):
                        return True
        return False

    if not rec(g.vertex_mask(), nonempty):
        return None
    return result


_LMH_SMALL = {"P3": path(3), "coP3": path(3).complement(), "E3": empty(3)}


_FOUR_VERTEX_SPARSE = {
    "E4": empty(4),
    "K2+E2": clique(2).disjoint_union(empty(2)),
    "2K2": clique(2).disjoint_union(clique(2)),
    "P3+K1": path(3).disjoint_union(empty(1)),
}


@dataclass
class ClaimResult:
    item: str
    parameters: dict
    found: bool
    witness: list[int] | None = None
    expected_found: bool = True


def verify_cycle_partition_claims(l: int) -> list[ClaimResult]:
    """Exhaustively check the stated partitions of C_{2l}.

    For l > 5 this covers all three items of the even-cycle partition
    claim.  For l in {3, 4, 5} it checks the finitely many partition facts
    stated for C6, C8 and C10.  Every l ends with a negative control: l-1
    cliques of size 2, which cannot cover the cycle.
    """
    if l < 3:
        raise ValueError("need l >= 3")
    g = cycle(2 * l)
    k2, e2 = clique(2), empty(2)
    results: list[ClaimResult] = []

    def run(item: str, params: dict, parts: list[Graph], expected: bool = True):
        masks = partition_into_parts(g, parts)
        results.append(ClaimResult(item=item, parameters=params,
                                   found=masks is not None, witness=masks,
                                   expected_found=expected))

    if l >= 5:
        for lname, lg in _LMH_SMALL.items():
            for mname, mg in _LMH_SMALL.items():
                if lname > mname:
                    continue
                for a in range(l - 2):
                    b = l - 3 - a
                    run("a", {"L": lname, "M": mname, "edges": a, "nonedges": b},
                        [lg, mg] + [k2] * a + [e2] * b)
    if l > 5:
        for a in range(l - 1):
            b = l - 2 - a
            run("b", {"edges": a, "nonedges": b},
                [path(4)] + [k2] * a + [e2] * b)
        for hname, hg in _FOUR_VERTEX_SPARSE.items():
            for a in range(l - 1):
                b = l - 2 - a
                run("c", {"H": hname, "edges": a, "nonedges": b},
                    [hg] + [k2] * a + [e2] * b)
    elif l == 5:
        run("b", {"edges": 3, "nonedges": 0}, [path(4)] + [k2] * 3)
        for hname in ("K2+E2", "2K2", "P3+K1"):
            run("c", {"H": hname, "edges": 3, "nonedges": 0},
                [_FOUR_VERTEX_SPARSE[hname]] + [k2] * 3)
        run("stable+4cliques", {}, [e2] + [k2] * 4)
    elif l == 4:
        run("two-stable", {}, [empty(4), empty(4)])
        run("four-cliques", {}, [k2] * 4)
        run("stable+3cliques", {}, [e2] + [k2] * 3)
    else:  # l == 3
        run("two-stable", {}, [empty(3), empty(3)])
        run("three-cliques", {}, [k2] * 3)
        run("stable+2cliques", {}, [e2, k2, k2])
        run("two-P3", {}, [path(3), path(3)])
        run("two-coP3", {}, [path(3).complement(), path(3).complement()])
    run("control", {"cliques": l - 1, "size": 2}, [k2] * (l - 1),
        expected=False)
    return results
