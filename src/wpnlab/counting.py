"""Exact counting: Bell numbers, star/clique-complement family sizes,
labeled cograph counts, the even-cycle lower bound, and a uniform
set-partition sampler (exact up to an urn tail cut below 2^-100).

All counts are exact big integers, built bottom-up and kept, so no count
recurses.  The one non-integer quantity (the lower bound's fractional
power of two) is kept as an exact rational exponent and compared without
floating point.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

# The largest n each count accepts.  At its cap each takes 7-9 s of one
# CPU (Python 3.11, 2-vCPU machine); the convolutions of f_star and the
# cograph counts grow like n^4, the Bell triangle like n^3.
MAX_BELL_N = 4000
MAX_F_STAR_N = 1000
MAX_COGRAPH_N = 800
# The largest power of two an exact bound is built with: 2^(2^25) has about
# 10.1 million decimal digits, takes 4 MB and prints in about 3 s.
MAX_BOUND_EXPONENT = 1 << 25


def _check_n(n: int, cap: int) -> None:
    if not 0 <= n <= cap:
        raise ValueError(f"n must be in [0, {cap}], got {n}")


# The Bell numbers so far, and the last row of the Bell triangle, which
# extends them.
_bell_numbers = [1]
_bell_row = [1]


def bell(n: int) -> int:
    """The nth Bell number (partitions of an n-set)."""
    global _bell_row
    _check_n(n, MAX_BELL_N)
    while len(_bell_numbers) <= n:
        _bell_row = list(itertools.accumulate(_bell_row, initial=_bell_row[-1]))
        _bell_numbers.append(_bell_row[0])
    return _bell_numbers[n]


def iter_set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1}; blocks sorted by least element."""
    if n == 0:
        yield ()
        return
    for sub in iter_set_partitions(n - 1):
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] + (n - 1,),) + sub[i + 1:]
        yield sub + ((n - 1,),)


# -- the F* families ----------------------------------------------------------


def component_count(i: int, s: int) -> int:
    """Labeled connected graphs on s vertices allowed as complement
    components of the family F*_i."""
    if i == 1:  # stars and triangles
        if s <= 2:
            return 1
        if s == 3:
            return 4  # 3 stars + 1 triangle
        return s  # choice of star center
    if i == 2:  # stars and cliques
        if s <= 2:
            return 1
        if s == 3:
            return 4
        return s + 1  # s stars + 1 clique
    if i == 3:  # join of a clique and a stable set (complete split graphs)
        if s == 1:
            return 1
        # 2^s - 1 non-empty clique sides, less the s sides of size s - 1:
        # each leaves one stable vertex seeing the whole clique, which is
        # K_s again, already counted by the full side
        return 2 ** s - s - 1
    raise ValueError("i must be 1, 2 or 3")


_f_star_values: dict[int, list[int]] = {}


def f_star(i: int, n: int) -> int:
    """|F*_i(n)|: labeled graphs on [n] whose complement components all
    have the family's shape; computed by the rooted-component convolution."""
    _check_n(n, MAX_F_STAR_N)
    f = _f_star_values.setdefault(i, [1])
    for m in range(len(f), n + 1):
        f.append(sum(math.comb(m - 1, s - 1) * component_count(i, s) * f[m - s]
                     for s in range(1, m + 1)))
    return f[n]


# Labeled cographs on n vertices: all of them, and the connected ones.
_cographs = [1, 1]
_connected_cographs = [0, 1]


def labeled_cograph_count(n: int) -> int:
    """Labeled cographs on n vertices.

    By Seinsche's theorem exactly half the cographs on n >= 2 vertices are
    connected (complementation swaps connected and co-connected), so the
    usual component convolution closes the recurrence.
    """
    _check_n(n, MAX_COGRAPH_N)
    for m in range(len(_cographs), n + 1):
        connected = sum(math.comb(m - 1, s - 1) * _connected_cographs[s]
                        * _cographs[m - s] for s in range(1, m))
        _connected_cographs.append(connected)
        _cographs.append(2 * connected)
    return _cographs[n]


# -- the C_{2l} lower bound ----------------------------------------------------


@dataclass(frozen=True)
class PowBellBound:
    """Exact value 2**exponent * bell_factor with a rational exponent."""

    exponent: Fraction
    bell_factor: int

    def is_integral(self) -> bool:
        return self.exponent.denominator == 1

    def exact_value(self) -> int:
        if not self.is_integral():
            raise ValueError("fractional exponent; compare with le_int/ge_int")
        if self.exponent > MAX_BOUND_EXPONENT:
            raise ValueError(f"exact value needs exponent <= {MAX_BOUND_EXPONENT}, "
                             f"got {self.exponent}")
        return (1 << int(self.exponent)) * self.bell_factor

    def le_int(self, other: int) -> bool:
        """self <= other, exactly: 2^(p/q)*B <= N iff 2^p * B^q <= N^q."""
        p, q = self.exponent.numerator, self.exponent.denominator
        return (1 << p) * self.bell_factor ** q <= other ** q

    def ge_int(self, other: int) -> bool:
        p, q = self.exponent.numerator, self.exponent.denominator
        return (1 << p) * self.bell_factor ** q >= other ** q


def c2l_lower_bound(n: int, l: int) -> PowBellBound:
    """2^((1-1/(l-1))*C(n,2)) * B_ceil(n/(l-1)), exactly."""
    if l <= 3:
        raise ValueError("need l > 3")
    if n < 1:
        raise ValueError("need n >= 1")
    exponent = Fraction(l - 2, l - 1) * math.comb(n, 2)
    return PowBellBound(exponent=exponent, bell_factor=bell(-(-n // (l - 1))))


# -- exact log2 comparisons ----------------------------------------------------


def le_times_log2(a: int, b: int, n: int) -> bool:
    """Decide a <= b * log2(n) exactly (a, b >= 0 integers, n >= 2).

    Brackets log2(n) between p/q and (p+1)/q for growing q until the
    comparison is decided.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    q = 64
    while True:
        npow = n ** q
        p = npow.bit_length() - 1  # 2^p <= n^q < 2^(p+1)
        if a * q <= b * p:
            return True
        if a * q > b * (p + 1):
            return False
        q *= 2


def growth_bounds_hold(i: int, n: int) -> bool:
    """n*f(n)/(16*log2 n) <= f(n+1) <= 4n*f(n), decided exactly."""
    fn, fn1 = f_star(i, n), f_star(i, n + 1)
    if fn1 > 4 * n * fn:
        return False
    return le_times_log2(n * fn, 16 * fn1, n)


# -- uniform set-partition sampling ---------------------------------------------


MAX_SAMPLER_N = 2000


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0..n-1}; blocks disjoint, nonempty, sorted by least
    element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be at least 0, got {self.n}")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            size = len(seen)
            seen.update(b)
            if len(seen) != size + len(b):  # a repeat within b counts too
                raise ValueError("overlapping blocks")
        if seen != set(range(self.n)):
            raise ValueError("blocks do not cover the ground set")


@dataclass(frozen=True)
class PartitionStats:
    blocks: int
    nonsingleton_blocks: int


def block_size_stats(sizes: Iterable[int], t: int) -> tuple[int, int, int]:
    """(blocks, non-singleton blocks, elements in blocks larger than t) of
    a partition with these block sizes."""
    sizes = tuple(sizes)
    heavy = sum(filter(t.__lt__, sizes))  # the sizes s with t < s
    return len(sizes), len(sizes) - sizes.count(1), heavy


def partition_stats(p: SetPartition) -> PartitionStats:
    blocks, nonsingletons, _ = block_size_stats(map(len, p.blocks), p.n)
    return PartitionStats(blocks=blocks, nonsingleton_blocks=nonsingletons)


def vertices_in_blocks_larger_than(p: SetPartition, t: int) -> int:
    return block_size_stats(map(len, p.blocks), t)[2]


def heavy_threshold(n: int) -> int:
    """floor(ln(n)^3), so a block size s exceeds ln^3 n iff s exceeds this.

    Worked at 30 significant digits: ln n and its cube are each rounded
    once, so the cube is within 1e-25 of ln^3 n <= 440, while no ln^3 n
    for 2 <= n <= MAX_SAMPLER_N comes nearer than 1.7e-5 to an integer
    (n = 631), and ln 1 = 0 exactly.
    """
    if not 1 <= n <= MAX_SAMPLER_N:
        raise ValueError(f"heavy threshold needs 1 <= n <= {MAX_SAMPLER_N}, got {n}")
    ctx = Context(prec=30)
    return int(ctx.power(ctx.ln(n), 3))  # int() floors a non-negative value


@lru_cache(maxsize=32)
def _urn_weight_table(n: int) -> tuple[tuple[int, ...], int]:
    """Cumulative integer weights for the urn count U with
    P(U=u) proportional to u^n/u! (Dobinski), truncated at the first u = T
    where the weights fall and a geometric bound on the remaining tail is
    below 2^-100 of the accumulated mass.

    The weights are u^n * T!/u!, divided by their gcd.  So they are the
    least integers in the ratios u^n/u!, and the cut-off test runs on the
    same ratios scaled by u!: the accumulated mass S = sum_j j^n * u!/j!
    and the weight ratio r = a/b = u^(n-1)/(u-1)^n give the test
    tail = u^n * r/(1 - r) < S / 2^100.
    """
    powers = [1]   # u^n for u = 1, 2, ...
    mass = 1       # S at the last u
    while True:
        u = len(powers) + 1
        powers.append(u ** n)
        mass = u * mass + powers[-1]
        a, b = powers[-1] // u, powers[-2]
        # a bit-length test the exact one cannot pass without, so its two
        # big products are formed only when it can pass
        if (a < b and powers[-1].bit_length() + a.bit_length() + 99
                <= mass.bit_length() + (b - a).bit_length()
                and powers[-1] * a << 100 < mass * (b - a)):
            break
    weights = []
    scale = 1      # T!/u!
    for u in range(len(powers), 0, -1):
        weights.append(powers[u - 1] * scale)
        scale *= u
    # folded from u = T, whose weight T^n is the shortest: from u = 1 the
    # running gcd starts at T! and stays thousands of bits long
    g = math.gcd(*weights)
    weights.reverse()
    cum = tuple(itertools.accumulate(w // g for w in weights))
    return cum, cum[-1]


class UniformPartitionSampler:
    """Uniform random set partitions of an n-set (two-stage urn method:
    draw the urn count, drop each element in a uniform urn, discard empty
    urns).  Exact but for the urn counts past the table's cut-off, whose
    total probability is below 2^-100.

    `sample()` and `sample(sizes=True)` read the same draw, so a seeded
    sampler gives the same stream whichever of them it is asked for."""

    def __init__(self, n: int, seed: int):
        if not 1 <= n <= MAX_SAMPLER_N:
            raise ValueError(f"sampler supports 1 <= n <= {MAX_SAMPLER_N}")
        # random.Random seeds with |seed|, so -3 would repeat the draws of 3
        if seed < 0:
            raise ValueError(f"sampler seed must be at least 0, got {seed}")
        self.n = n
        self._rng = random.Random(seed)
        self._cum, self._total = _urn_weight_table(n)

    def _urns(self) -> list[int]:
        """The urn of each element 0..n-1 in one draw.

        Each element's urn is drawn with `Random.randrange`'s own rejection
        loop (k random bits, redrawn while >= u), inlined, so a seeded
        sampler yields the same partitions as one that calls `randrange`.
        """
        rng = self._rng
        r = rng.randrange(self._total)
        u = bisect.bisect_right(self._cum, r) + 1  # urn counts start at 1
        getrandbits, k = rng.getrandbits, u.bit_length()
        urns: list[int] = []
        append = urns.append
        for _ in range(self.n):
            j = getrandbits(k)
            while j >= u:
                j = getrandbits(k)
            append(j)
        return urns

    def sample(self, *, sizes: bool = False) -> SetPartition | tuple[int, ...]:
        """One partition, blocks ordered by least element.

        With sizes=True, only its block sizes in that order, counted from
        the same draw without building the blocks; raises ValueError unless
        they sum to n, the one check of `SetPartition` that sizes can fail.
        """
        urns = self._urns()
        if sizes:
            counts = tuple(Counter(urns).values())
            if sum(counts) != self.n:
                raise ValueError(f"block sizes sum to {sum(counts)}, not n = {self.n}")
            return counts
        blocks: dict[int, list[int]] = {}
        for x, j in enumerate(urns):
            blocks.setdefault(j, []).append(x)
        # x runs upwards, so the blocks are in order of their least element
        return SetPartition(n=self.n, blocks=tuple(map(tuple, blocks.values())))
