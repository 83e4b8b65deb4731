"""Deterministic primality, sieving, and prime search in arithmetic progressions.

Everything here is exact for 64-bit inputs: the Miller-Rabin witness set below is
a verified deterministic set for all n < 2^64, so verification campaigns built on
top of it carry no probabilistic error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

#: Default ceiling for open-ended prime scans (first prime of a polynomial form,
#: de Polignac pairs, ...).  Termination of those scans is not provable, so they
#: abort with ScanCeilingError instead of running forever.
DEFAULT_SCAN_CEILING = 1 << 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic witness set for all n < 2^64 (the well-known 7-base set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Width of one aligned sieve block, and how many sieved blocks are kept.  The
# windows of consecutive n in a window-check campaign overlap almost entirely,
# so one cached block answers thousands of calls; a block holds at most 6,542
# primes, so eight cached blocks take about 2 MB.
_SIEVE_BLOCK = 1 << 16
_CACHED_BLOCKS = 8


class ScanCeilingError(RuntimeError):
    """A prime scan exhausted its configured ceiling without finding a hit."""

    def __init__(self, what: str, ceiling: int):
        super().__init__(f"{what}: no hit at or below ceiling {ceiling}")
        self.what = what
        self.ceiling = ceiling


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d & 1 == 0:
        d >>= 1
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def radical(d: int) -> int:
    """Product of the distinct primes dividing d; radical(1) == 1."""
    if d < 1:
        raise ValueError(f"radical requires d >= 1, got {d}")
    r = 1
    x = d
    if x % 2 == 0:
        r = 2
        while x % 2 == 0:
            x //= 2
    p = 3
    while p * p <= x:
        if x % p == 0:
            r *= p
            while x % p == 0:
                x //= p
        p += 2
    if x > 1:
        r *= x
    return r


def euler_phi(d: int) -> int:
    """Count of 1 <= a <= d with gcd(a, d) == 1."""
    if d < 1:
        raise ValueError(f"euler_phi requires d >= 1, got {d}")
    res = d
    x = d
    if x % 2 == 0:
        res //= 2
        while x % 2 == 0:
            x //= 2
    p = 3
    while p * p <= x:
        if x % p == 0:
            res -= res // p
            while x % p == 0:
                x //= p
        p += 2
    if x > 1:
        res -= res // x
    return res


@dataclass(frozen=True)
class PrimeQuery:
    """A request for the first prime >= lower_bound in a residue class.

    residue may be negative; only its class modulo `modulus` matters.
    """

    residue: int
    modulus: int
    lower_bound: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if self.lower_bound < 2:
            raise ValueError(f"lower_bound must be >= 2, got {self.lower_bound}")
        if self.modulus > 1 and math.gcd(self.residue % self.modulus, self.modulus) != 1:
            raise ValueError(
                f"residue {self.residue} is not coprime to modulus {self.modulus}"
            )


def first_prime_in_ap(q: PrimeQuery, ceiling: int = DEFAULT_SCAN_CEILING) -> int:
    """Least prime p >= q.lower_bound with p == q.residue (mod q.modulus).

    Dirichlet guarantees termination mathematically; the ceiling turns a
    runaway scan (e.g. absurd inputs) into ScanCeilingError.
    """
    m = q.modulus
    res = q.residue % m
    cand = q.lower_bound + (res - q.lower_bound) % m
    while cand <= ceiling:
        if is_prime(cand):
            return cand
        cand += m
    raise ScanCeilingError(f"prime == {q.residue} (mod {m}) from {q.lower_bound}", ceiling)


def simple_sieve(limit: int) -> list[int]:
    """All primes <= limit, in increasing order."""
    if limit < 2:
        return []
    # Odd numbers only: flags[i] stands for 2i + 1.
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            first = p * p // 2
            flags[first::p] = bytes(len(range(first, len(flags), p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


@lru_cache(maxsize=_CACHED_BLOCKS)
def _sieve_block(index: int) -> tuple[int, ...]:
    """All primes in [index * _SIEVE_BLOCK, (index + 1) * _SIEVE_BLOCK), in
    increasing order, by sieving the block's odd numbers with the odd primes up
    to its square root."""
    lo = index * _SIEVE_BLOCK
    hi = lo + _SIEVE_BLOCK
    # flags[i] stands for lo + 2i + 1; lo is even.
    flags = bytearray([1]) * (_SIEVE_BLOCK // 2)
    for p in simple_sieve(math.isqrt(hi - 1))[1:]:
        # the first odd multiple of p from max(p * p, lo) on
        if p * p >= lo:
            first = (p * p - lo) >> 1
        else:
            r = -lo % p
            first = (r if r & 1 else r + p) >> 1
        flags[first::p] = bytes(len(range(first, len(flags), p)))
    if index == 0:
        flags[0] = 0  # 1 is not prime
    primes = tuple(compress(range(lo + 1, hi, 2), flags))
    return (2, *primes) if index == 0 else primes


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p < hi, from cached sieve blocks."""
    if hi <= lo or hi <= 2:
        return []
    lo = max(lo, 2)
    out: list[int] = []
    for index in range(lo // _SIEVE_BLOCK, (hi - 1) // _SIEVE_BLOCK + 1):
        block = _sieve_block(index)
        out += block[bisect_left(block, lo) : bisect_left(block, hi)]
    return out


def nth_primes(n: int) -> list[int]:
    """The first n primes [2, 3, 5, ...] in increasing order."""
    if n < 1:
        raise ValueError(f"nth_primes requires n >= 1, got {n}")
    if n < 6:
        return [2, 3, 5, 7, 11][:n]
    # Rosser-style upper bound for the n-th prime.
    bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    primes = simple_sieve(bound)
    while len(primes) < n:
        bound *= 2
        primes = simple_sieve(bound)
    return primes[:n]


def classify_two_power_times_prime(m: int) -> bool:
    """True iff m is 2^a (a >= 0, including 1) or an odd prime times 2^a."""
    if m < 1:
        raise ValueError(f"classification requires m >= 1, got {m}")
    q = m >> ((m & -m).bit_length() - 1)
    return q == 1 or is_prime(q)


#: Supported prime-producing polynomial forms, keyed by display name.
POLYNOMIAL_FORMS = {
    "x^2+x+1": lambda x: x * x + x + 1,
    "4x^2+1": lambda x: 4 * x * x + 1,
}


def first_prime_of_form(
    form: str, lower_bound: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """Least prime p >= lower_bound with p = form(x) for some integer x >= 0.

    Whether such primes exist beyond any bound is an open question, hence the
    ceiling.
    """
    if form not in POLYNOMIAL_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(POLYNOMIAL_FORMS)}")
    if lower_bound < 2:
        raise ValueError(f"lower_bound must be >= 2, got {lower_bound}")
    f = POLYNOMIAL_FORMS[form]
    x = 0
    while True:
        v = f(x)
        if v > ceiling:
            raise ScanCeilingError(f"prime of form {form} from {lower_bound}", ceiling)
        if v >= lower_bound and is_prime(v):
            return v
        x += 1
