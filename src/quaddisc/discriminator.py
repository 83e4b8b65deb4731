"""Integer-valued quadratic sequences and their least distinct-residue moduli.

The discriminator of a sequence at n is the least m >= 1 such that the first n
terms are pairwise distinct modulo m.  The sequences handled here all have the
half-quadratic shape f(k) = (a*k^2 + b*k) / 2 with a + b even, which covers
every w*k*(s*k + t) product sequence as well as binomial(k, 2) and k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .ntcore import DEFAULT_SCAN_CEILING, ScanCeilingError, radical

# Length of the interpreted early-exit pass before switching to the vectorized
# full check.  Most composite candidate moduli collide within a few dozen terms.
_PREFIX_LIMIT = 64

# Residue arithmetic stays in int64 on the vectorized path as long as the raw
# terms fit; larger coefficients fall back to exact Python integers.
_INT64_TERM_LIMIT = 1 << 62


@dataclass(frozen=True)
class HalfQuadratic:
    """Sequence f(k) = (a*k^2 + b*k) // 2, integer-valued because a + b is even."""

    a: int
    b: int

    def __post_init__(self):
        if (self.a + self.b) % 2 != 0:
            raise ValueError(f"a + b must be even, got a={self.a}, b={self.b}")

    @classmethod
    def from_factors(cls, outer: int, slope: int, shift: int) -> "HalfQuadratic":
        """The sequence outer * k * (slope*k + shift)."""
        return cls(2 * outer * slope, 2 * outer * shift)

    @classmethod
    def choose_two(cls) -> "HalfQuadratic":
        """binomial(k, 2) = k*(k-1)/2."""
        return cls(1, -1)

    @classmethod
    def squares(cls) -> "HalfQuadratic":
        """k^2."""
        return cls(2, 0)

    def term(self, k: int) -> int:
        return (self.a * k * k + self.b * k) // 2

    def terms(self, n: int) -> list[int]:
        return [self.term(k) for k in range(1, n + 1)]

    def __str__(self) -> str:
        return f"({self.a}k^2{self.b:+d}k)/2"


@dataclass(frozen=True)
class APCase:
    """Modulus d >= 2 with a coprime residue c in (-d, d).

    Carries the canonical product sequence 2*rad(d) * k * (d*k - c) whose
    discriminator tracks primes in the class c modulo d.
    """

    d: int
    c: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not -self.d < self.c < self.d:
            raise ValueError(f"c must lie in (-{self.d}, {self.d}), got {self.c}")
        if math.gcd(self.c, self.d) != 1:
            raise ValueError(f"c={self.c} and d={self.d} must be coprime")

    @property
    def rad(self) -> int:
        return radical(self.d)

    @property
    def seq(self) -> HalfQuadratic:
        return HalfQuadratic.from_factors(2 * self.rad, self.d, -self.c)


def eval_mod(seq: HalfQuadratic, k: int, m: int) -> int:
    """f(k) mod m, reduced modulo 2m before the exact halving."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m2 = 2 * m
    kr = k % m2
    return ((seq.a * kr * kr + seq.b * kr) % m2) // 2


def _terms_array(seq: HalfQuadratic, n: int) -> np.ndarray | None:
    """f(1..n) as int64, or None when the magnitudes would overflow int64."""
    bound = abs(seq.a) * n * n + abs(seq.b) * n
    if bound >= _INT64_TERM_LIMIT:
        return None
    k = np.arange(1, n + 1, dtype=np.int64)
    return (seq.a * k * k + seq.b * k) // 2


def _distinct_hybrid(seq: HalfQuadratic, n: int, m: int, terms: np.ndarray | None) -> bool:
    """Occupancy check with early exit: interpreted prefix, then vectorized rest."""
    a, b = seq.a, seq.b
    h = (a + b) // 2  # f(1); exact, a + b is even
    val = h % m
    step = (a + h) % m  # f(2) - f(1)
    inc = a % m
    seen: set[int] = set()
    add = seen.add
    for _ in range(n if n <= _PREFIX_LIMIT else _PREFIX_LIMIT):
        if val in seen:
            return False
        add(val)
        val += step
        if val >= m:
            val -= m
        step += inc
        if step >= m:
            step -= m
    if n <= _PREFIX_LIMIT:
        return True
    if terms is None:
        terms = _terms_array(seq, n)
    if terms is None:  # magnitudes beyond int64: exact fallback
        m2 = 2 * m
        return len({(a * k * k + b * k) % m2 for k in range(1, n + 1)}) == n
    res = terms % m
    if m <= 8 * n:
        return int(np.bincount(res, minlength=m).max()) <= 1
    res.sort()
    return bool((res[1:] != res[:-1]).all())


def pairwise_distinct(seq: HalfQuadratic, n: int, m: int) -> bool:
    """True iff f(1..n) are pairwise distinct modulo m.

    Single O(n) occupancy pass with early exit on the first collision; always
    False when m < n by pigeonhole.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return True
    if m < n:
        return False
    return _distinct_hybrid(seq, n, m, None)


def pairwise_distinct_fast(case: APCase, n: int, m: int) -> bool:
    """Distinctness for an APCase sequence via the factored term difference.

    f(l) - f(k) = 2*rad * (l-k) * (d*(k+l) - c) exactly, so a collision modulo
    m is a pair u = l-k, s = k+l with m | 2*rad*u*(d*s - c), s == u (mod 2) and
    u+2 <= s <= 2n-u.  The search runs over u and solves for s directly instead
    of filling a residue table.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return True
    if m < n:
        return False
    d, c = case.d, case.c
    two_rad = 2 * case.rad
    gcd = math.gcd
    for u in range(1, n):
        m1 = m // gcd(two_rad * u, m)
        hi = 2 * n - u
        if m1 == 1:
            # every s of the right parity collides, and u+2 <= 2n-u holds here
            return False
        if gcd(d, m1) != 1:
            # d*s == c (mod m1) unsolvable: any common factor would divide c
            continue
        s = (c * pow(d, -1, m1)) % m1
        if m1 & 1:
            stride = 2 * m1
            if (s ^ u) & 1:
                s += m1
        else:
            if (s ^ u) & 1:
                continue
            stride = m1
        lo = u + 2
        if s < lo:
            s += (lo - s + stride - 1) // stride * stride
        if s <= hi:
            return False
    return True


def residue_count(seq: HalfQuadratic, n: int, m: int) -> int:
    """Cardinality of {f(k) mod m : 1 <= k <= n}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    terms = _terms_array(seq, n)
    if terms is None:
        m2 = 2 * m
        return len({(seq.a * k * k + seq.b * k) % m2 for k in range(1, n + 1)})
    return int(np.unique(terms % m).size)


def collision_witness(seq: HalfQuadratic, n: int, m: int) -> tuple[int, int] | None:
    """First pair 1 <= k < l <= n with f(k) == f(l) (mod m), else None."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    seen: dict[int, int] = {}
    for k in range(1, n + 1):
        r = eval_mod(seq, k, m)
        if r in seen:
            return seen[r], k
        seen[r] = k
    return None


def _check_separable(seq: HalfQuadratic, n: int) -> None:
    """Reject sequences with two equal terms among f(1..n): no modulus works."""
    a, b = seq.a, seq.b
    if a == 0:
        if b == 0 and n >= 2:
            raise ValueError("constant sequence: no modulus separates equal terms")
        return
    # f(k) == f(l) exactly when a*(k+l) == -b; k+l ranges over [3, 2n-1]
    if (-b) % a == 0:
        s = (-b) // a
        if 3 <= s <= 2 * n - 1:
            k = (s - 1) // 2
            raise ValueError(
                f"terms {k} and {s - k} coincide exactly; no modulus separates them"
            )


def least_modulus(
    seq: HalfQuadratic,
    n: int,
    *,
    ceiling: int = DEFAULT_SCAN_CEILING,
    start: int | None = None,
) -> int:
    """Least m >= 1 with f(1..n) pairwise distinct modulo m.

    The scan starts at m = start, which must be a proven lower bound of the
    answer.  It defaults to n, the pigeonhole bound; a sweep passes the least
    modulus of a smaller n, since distinctness of n terms implies distinctness
    of any fewer.  start=1 scans every m, as a self-check of both bounds.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    _check_separable(seq, n)
    terms = _terms_array(seq, n)
    for m in count(n if start is None else start):
        if m > ceiling:
            raise ScanCeilingError(f"least modulus for {seq} at n={n}", ceiling)
        if _distinct_hybrid(seq, n, m, terms):
            return m


def least_modulus_pair(
    seq: HalfQuadratic,
    n: int,
    gap: int,
    *,
    ceiling: int = DEFAULT_SCAN_CEILING,
    start: int | None = None,
) -> int:
    """Least m >= 1 with f(1..n) pairwise distinct modulo both m and m + gap.

    Full residue count n at both moduli is equivalent to pairwise distinctness
    at both.  The scan starts at start (default n), a proven lower bound as in
    least_modulus.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if n == 1:
        return 1
    _check_separable(seq, n)
    terms = _terms_array(seq, n)
    for m in count(n if start is None else start):
        if m > ceiling:
            raise ScanCeilingError(f"least modulus pair (gap {gap}) for {seq} at n={n}", ceiling)
        if _distinct_hybrid(seq, n, m, terms) and _distinct_hybrid(seq, n, m + gap, terms):
            return m
