"""Integer direction vectors that index the stability polytope's inequalities.

The region of stabilizable arrival rates is cut out by half-spaces
``alpha . rate <= beta``.  Only finitely many directions ``alpha`` are
needed: candidate coordinates are products of N-1 capacity values (the set
W), and a partition-ratio filter keeps exactly the directions whose
hyperplanes can touch the region on a maximal face.  The filter is decided
as connectivity of a small graph on the nonzero coordinates, with an edge
wherever two coordinates stand in a capacity ratio n/m (m, n <= M).  It
runs on integers only: rational inputs are scaled to integers first, and
no float equality is ever tested.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from typing import Sequence

from .channel_models import ValidationError, _read, _read_count

DEFAULT_ENUM_CAP = 10_000_000


def build_w(M: int, N: int) -> list[int]:
    """All distinct products of N-1 factors drawn with repetition from {0..M}.

    Always contains 0 (any zero factor) and 1 (all-ones).  For N = 1 the
    empty product leaves {1}.
    """
    M, N = _read_count(M, "M", 1), _read_count(N, "N", 1)
    vals = {1}
    for _ in range(N - 1):
        vals = {v * m for v in vals for m in range(M + 1)}
    return sorted(vals)


def wn_count(M: int, N: int) -> int:
    """Closed-form size of the candidate direction space, ((M+N-2 choose N-1)+1)^N.

    The binomial term counts the multisets of N-1 nonzero factors, plus one
    for the all-zero product.  It coincides with len(build_w(M, N))**N as
    long as distinct factor multisets always yield distinct products, which
    holds for M <= 3 (products 2^a * 3^b are unique) and for N = 2 (a single
    factor).  From M = 4 upward collisions such as 2*2 = 1*4 make the
    enumerated set strictly smaller than this count.
    """
    M, N = _read_count(M, "M", 1), _read_count(N, "N", 2)
    return (math.comb(M + N - 2, N - 1) + 1) ** N


def canonicalize(alpha: Sequence[int]) -> tuple[int, ...]:
    """Scale-free representative: divide by the gcd of the nonzero coordinates.

    Coordinates must be integers; an integral float reads as one, and any
    other number (a fraction, inf, NaN) or a bool is a ValueError.
    """
    coords = _read(tuple(alpha), [int], "alpha")
    if any(a < 0 for a in coords):
        raise ValueError("direction coordinates must be nonnegative")
    g = 0
    for a in coords:
        g = math.gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no canonical direction")
    return tuple(a // g for a in coords)


def _to_fraction(x, where: str) -> Fraction:
    """x exactly: a Fraction as given, an integer (numpy's too) as itself, any other finite number as its float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return Fraction(int(x))
    x = _read(x, float, where)
    if not math.isfinite(x):
        raise ValidationError(f"{where} must be finite, got {x!r}")
    return Fraction(x)  # exact: a finite float is a binary rational


def _ratio_connected(alpha: Sequence[int], M: int) -> bool:
    """True iff the nonzero integer coordinates form one connected ratio graph.

    Nonzero coordinates a and b are adjacent when a/b = n/m for capacities
    m, n in 1..M, that is when the reduced ratio p/q has p, q <= M, or
    max(a, b) // gcd(a, b) <= M.  The partition-ratio filter asks every
    split of the nonzero coordinates into two nonempty sides to have an
    adjacent pair across it (zero coordinates join either side and impose
    nothing).  A graph has an edge across every cut exactly when it is
    connected: a component that misses some vertex is itself a cut with no
    crossing edge.  So one graph search, O(N^2) ratio tests, replaces the
    2^(N-1) cuts.  At least one coordinate must be nonzero.
    """
    unreached = [a for a in alpha if a]
    frontier = [unreached.pop()]
    while frontier:
        a = frontier.pop()
        rest = []
        for b in unreached:
            (frontier if max(a, b) // math.gcd(a, b) <= M else rest).append(b)
        unreached = rest
    return not unreached


def in_v(alpha: Sequence, M: int) -> bool:
    """Whether a nonnegative direction survives the partition-ratio filter.

    Accepts real coordinates; floats are converted to exact rationals and
    scaled to integers by the lcm of their denominators, so the ratio test
    is never subject to rounding.  Positive scalings of the same vector
    agree whenever the scaling is exact (integers, or powers of two for
    float inputs).  A bool is not a coordinate.
    """
    M = _read_count(M, "M", 1)
    coords = [_to_fraction(x, f"alpha[{i}]") for i, x in enumerate(alpha)]
    if any(c < 0 for c in coords):
        raise ValueError("direction coordinates must be nonnegative")
    if all(c == 0 for c in coords):
        raise ValueError("zero vector is not a direction")
    scale = math.lcm(*(c.denominator for c in coords))
    return _ratio_connected([int(c * scale) for c in coords], M)


def build_vhat(M: int, N: int, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[int, ...]]:
    """The scaling-free direction set: one inequality per element.

    Enumerates the candidate space (every coordinate from build_w, zero
    vector excluded), keeps directions whose ratio graph is connected,
    canonicalizes by gcd, and deduplicates scalar multiples.  The result
    is sorted and contains every standard basis vector.
    """
    M, N, cap = _read_count(M, "M", 1), _read_count(N, "N", 1), _read_count(cap, "cap", 1)
    # for N >= 2, W holds {0..M}: (M+1)^N bounds |W|^N before W is built, and 2^N > cap from N = cap.bit_length()
    if N >= 2 and (N >= cap.bit_length() or (M + 1) ** N > cap):
        raise ValueError(f"enumeration cap exceeded: |W|^N >= {M + 1}^{N} > {cap}")
    W = build_w(M, N)
    total = len(W) ** N
    if total > cap:
        raise ValueError(f"enumeration cap exceeded: |W|^N = {total} > {cap}")
    out = set()
    for cand in itertools.product(W, repeat=N):
        if any(cand) and _ratio_connected(cand, M):
            out.add(canonicalize(cand))
    return sorted(out)
