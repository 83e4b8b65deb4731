"""Integer-valued quadratic sequences and their least distinct-residue moduli.

The discriminator of a sequence at n is the least m >= 1 such that the first n
terms are pairwise distinct modulo m.  The sequences handled here all have the
half-quadratic shape f(k) = (a*k^2 + b*k) / 2 with a + b even, which covers
every w*k*(s*k + t) product sequence as well as binomial(k, 2) and k^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import count

from .ntcore import DEFAULT_SCAN_CEILING, Value, _first, _prime_factors, radical


class HalfQuadratic(Value, namedtuple("HalfQuadratic", "a b")):
    """Sequence f(k) = (a*k^2 + b*k) // 2, integer-valued because a + b is even."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if (a + b) % 2 != 0:
            raise ValueError(f"a + b must be even, got a={a}, b={b}")
        return super().__new__(cls, a, b)

    @classmethod
    def from_factors(cls, outer: int, slope: int, shift: int) -> "HalfQuadratic":
        """The sequence outer * k * (slope*k + shift)."""
        return cls(2 * outer * slope, 2 * outer * shift)

    def term(self, k: int) -> int:
        return (self.a * k * k + self.b * k) // 2

    def __str__(self) -> str:
        return f"({self.a}k^2{self.b:+d}k)/2"


class APCase(Value, namedtuple("APCase", "d c")):
    """Modulus d >= 2 with a coprime residue c in (-d, d).

    Carries the canonical product sequence 2*rad(d) * k * (d*k - c) whose
    discriminator tracks primes in the class c modulo d.
    """

    __slots__ = ()

    def __new__(cls, d: int, c: int):
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        if not -d < c < d:
            raise ValueError(f"c must lie in (-{d}, {d}), got {c}")
        if math.gcd(c, d) != 1:
            raise ValueError(f"c={c} and d={d} must be coprime")
        return super().__new__(cls, d, c)

    @property
    def rad(self) -> int:
        return radical(self.d)

    @property
    def seq(self) -> HalfQuadratic:
        return HalfQuadratic.from_factors(2 * self.rad, self.d, -self.c)


def _residues(seq: HalfQuadratic, n: int, m: int) -> Iterator[int]:
    """f(1), ..., f(n) modulo m, in exact integers.  Each residue follows from
    the last by two additions: f(k+1) - f(k) grows by a at every step."""
    a = seq.a
    h = (a + seq.b) // 2  # f(1); exact, a + b is even
    val = h % m
    step = (a + h) % m  # f(2) - f(1)
    inc = a % m
    for _ in range(n):
        yield val
        val += step
        if val >= m:
            val -= m
        step += inc
        if step >= m:
            step -= m


def _guarded(test: Callable, seq: HalfQuadratic, n: int, m: int) -> bool:
    """test(seq, n, m) for n, m >= 1, after the n == 1 and pigeonhole (m < n)
    shortcuts; ValueError for n or m below 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return True
    if m < n:
        return False
    return test(seq, n, m)


def pairwise_distinct(seq: HalfQuadratic, n: int, m: int) -> bool:
    """True iff f(1..n) are pairwise distinct modulo m.

    collision_witness's O(n) occupancy pass, with early exit on the first
    collision; always False when m < n by pigeonhole.  The scans use the
    divisor-class test of _separates instead; this pass is the oracle it is
    tested against.
    """
    return _guarded(lambda *args: collision_witness(*args) is None, seq, n, m)


def pairwise_distinct_fast(case: APCase, n: int, m: int) -> bool:
    """Distinctness for an APCase sequence by the divisor-class test of
    _separates, with the n == 1 and pigeonhole shortcuts of pairwise_distinct."""
    return _guarded(_separates, case.seq, n, m)


def _divisors_upto(x: int, limit: int) -> list[int]:
    """The divisors g <= limit of x, unordered, for x, limit >= 1, built from
    the primes up to limit that divide x (ntcore._prime_factors): only those
    can divide such a g."""
    divs = [1]
    for p, e in _prime_factors(x, limit):
        new: list[int] = []
        pk = p
        for _ in range(e):
            new += [g * pk for g in divs if g * pk <= limit]
            pk *= p
        divs += new
    return divs


def _class_collides(a: int, b: int, g: int, big_m: int, n: int) -> bool:
    """Whether some s == g (mod 2) in [g + 2, 2n - g] has big_m | a*s + b."""
    h = math.gcd(a, big_m)
    if b % h:
        return False
    step = big_m // h
    if step == 1:
        return True  # every s, and g + 2 <= 2n - g holds for g <= n - 1
    s = (-(b // h) * pow(a // h, -1, step)) % step
    if step & 1:
        if (s ^ g) & 1:
            s += step  # the solution of the right parity modulo 2*step
        step *= 2
    elif (s ^ g) & 1:
        return False  # all solutions have the parity of s
    lo = g + 2
    return lo + (s - lo) % step <= 2 * n - g


def _separates(seq: HalfQuadratic, n: int, m: int) -> bool:
    """True iff f(1..n) are pairwise distinct modulo m, for any n, m >= 1, by
    divisor class instead of an O(n) occupancy pass.

    With u = l - k and s = l + k, 2(f(l) - f(k)) = u (a s + b), where
    s == u (mod 2) and u + 2 <= s <= 2n - u.  So f(l) == f(k) (mod m) iff
    2m / g divides a s + b, where g = gcd(2m, u).  Every u with
    gcd(2m, u) = g has the parity of g and is at least g, so u = g has the
    widest s-range of its class: m separates the terms iff no divisor
    g <= n - 1 of 2m admits such an s for u = g.  g = 1 and g = 2 divide every
    2m and reject most candidates, so they are tested before 2m is factored.
    Those two cost O(1); any other candidate costs a trial division up to
    min(n - 1, sqrt(2m)) plus one range test per divisor g <= n - 1.
    """
    a, b = seq.a, seq.b
    m2 = 2 * m
    if n >= 2 and _class_collides(a, b, 1, m2, n):
        return False
    if n >= 3 and _class_collides(a, b, 2, m, n):
        return False
    if n >= 4:
        for g in _divisors_upto(m2, n - 1):
            if g > 2 and _class_collides(a, b, g, m2 // g, n):
                return False
    return True


def _first_collision(values: Iterable) -> tuple[int, int] | None:
    """(k, l), counted from 1, where the l-th value is the first to repeat an
    earlier one, the k-th; None when all values differ."""
    seen: dict = {}
    for l, v in enumerate(values, 1):
        if v in seen:
            return seen[v], l
        seen[v] = l
    return None


def collision_witness(seq: HalfQuadratic, n: int, m: int) -> tuple[int, int] | None:
    """First pair 1 <= k < l <= n with f(k) == f(l) (mod m), else None."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _first_collision(_residues(seq, n, m))


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


# The last (n, least modulus) that _scan found in this process for each of
# the last 64 keys it found one for, the least recent first.  Taking fewer
# terms keeps distinct terms distinct, so D(n') <= D(n) for n' < n, and any
# answer for the same key at a smaller n bounds the next one.  Only values
# computed here are kept: a bound above the true answer would skip it.
_hints: dict = {}


def _scan(
    key: object, n: int, candidates: Callable, accept: Callable, ceiling: int, what: str
) -> int:
    """ntcore._first over candidates(lower), an ascending iterator of the
    candidate moduli >= lower.  lower is n, the pigeonhole bound, or the least
    modulus last found for key when that was at a smaller n.  A scan past the
    ceiling leaves the hints as they were."""
    hint = _hints.get(key)
    lower = max(n, hint[1]) if hint is not None and hint[0] < n else n
    m = _first(candidates(lower), accept, ceiling, what)
    _hints.pop(key, None)
    _hints[key] = (n, m)
    if len(_hints) > 64:
        del _hints[next(iter(_hints))]
    return m


def least_modulus(seq: HalfQuadratic, n: int, *, ceiling: int = DEFAULT_SCAN_CEILING) -> int:
    """Least m >= 1 with f(1..n) pairwise distinct modulo m."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    _check_separable(seq, n)
    return _scan(seq, n, count, lambda m: _separates(seq, n, m), ceiling,
                 f"least modulus for {seq} at n={n}")


def least_modulus_pair(
    seq: HalfQuadratic, n: int, gap: int, *, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """Least m >= 1 with f(1..n) pairwise distinct modulo both m and m + gap.

    The scan tests each candidate at both moduli by divisor class
    (_separates).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if n == 1:
        return 1
    _check_separable(seq, n)
    return _scan((seq, gap), n, count,
                 lambda m: _separates(seq, n, m) and _separates(seq, n, m + gap), ceiling,
                 f"least modulus pair (gap {gap}) for {seq} at n={n}")
