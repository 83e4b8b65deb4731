"""Deterministic primality, sieving, and prime search in arithmetic progressions.

Everything here is exact for 64-bit inputs: the Miller-Rabin witness sets below
are verified deterministic sets for all n < 2^64, so verification campaigns
built on top of it carry no probabilistic error.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain, compress, count, islice, takewhile

#: Default ceiling for open-ended prime scans (first prime of a polynomial form,
#: de Polignac pairs, ...).  Termination of those scans is not provable, so they
#: abort with ScanCeilingError instead of running forever.
DEFAULT_SCAN_CEILING = 1 << 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic witness sets: {2, 7, 61} for all n < 4,759,123,141 (Jaeschke
# 1993; 4,759,123,141 = 48,781 * 97,561 is a strong pseudoprime to all three),
# and the well-known 7-base set for all n < 2^64.
_MR_SMALL_WITNESSES = (2, 7, 61)
_MR_SMALL_LIMIT = 4_759_123_141
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_LIMIT = 1 << 64

# Width of one aligned sieve block, and how many sieved blocks are kept.  The
# windows of consecutive n in a window-check campaign overlap almost entirely,
# so one cached block answers thousands of calls; a block holds at most 6,542
# primes, packed at 4 bytes each below 2^32 and 8 above, so eight cached blocks
# take at most about 0.4 MB.
_SIEVE_BLOCK = 1 << 16
_CACHED_BLOCKS = 8


class Value:
    """Mixin for the namedtuple value types: a value equals only a value of its
    own class, so an APCase(3, 1) never equals a HalfQuadratic(3, 1) or the
    tuple (3, 1).  Each subclass declares __slots__ = (), so it has no __dict__."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))


class Outcome(Value, namedtuple("Outcome", "least_m predicted match extra", defaults=(None,))):
    """What one check of n found, as its record writes it: the least modulus,
    the predicted one (or None), whether the outcome is the one predicted, and
    the record's extra fields, a dict such as a conjecture's certificate, or
    None."""

    __slots__ = ()


class ScanCeilingError(RuntimeError):
    """A prime scan exhausted its configured ceiling without finding a hit."""

    def __init__(self, what: str, ceiling: int):
        super().__init__(f"{what}: no hit at or below ceiling {ceiling}")
        self.what = what
        self.ceiling = ceiling


def _first(candidates: Iterable[int], accept: Callable, ceiling: int, what: str) -> int:
    """The first of the ascending candidates that accept passes: the package's
    one search loop.  Raises ScanCeilingError(what, ceiling) at the first
    candidate above ceiling, before accept sees it."""
    for m in candidates:
        if m > ceiling:
            raise ScanCeilingError(what, ceiling)
        if accept(m):
            return m


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 0 <= n < 2^64; raises
    ValueError from 2^64 on, where the witness set is not proven."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below 2^64, got {n}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d & 1 == 0:
        d >>= 1
        s += 1
    for a in _MR_SMALL_WITNESSES if n < _MR_SMALL_LIMIT else _MR_WITNESSES:
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


@lru_cache(maxsize=64)
def radical(d: int) -> int:
    """Product of the distinct primes dividing d; radical(1) == 1.  Cached,
    since a campaign asks for rad(d) of its one d at every n."""
    if d < 1:
        raise ValueError(f"radical requires d >= 1, got {d}")
    return math.prod(p for p, _ in _prime_factors(d, d))


def _check_prime_query(residue: int, modulus: int, lower_bound: int) -> None:
    """Raise ValueError unless modulus >= 1, lower_bound >= 2 and gcd(residue, modulus) = 1."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if lower_bound < 2:
        raise ValueError(f"lower_bound must be >= 2, got {lower_bound}")
    if modulus > 1 and math.gcd(residue % modulus, modulus) != 1:
        raise ValueError(f"residue {residue} is not coprime to modulus {modulus}")


def first_prime_in_ap(
    residue: int, modulus: int, lower_bound: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """Least prime p >= lower_bound with p == residue (mod modulus); residue may
    be negative, only its class modulo `modulus` matters.

    Dirichlet guarantees termination mathematically; the ceiling turns a
    runaway scan (e.g. absurd inputs) into ScanCeilingError.
    """
    _check_prime_query(residue, modulus, lower_bound)
    return _first(count(lower_bound + (residue - lower_bound) % modulus, modulus), is_prime,
                  ceiling, f"prime == {residue} (mod {modulus}) from {lower_bound}")


@lru_cache(maxsize=_CACHED_BLOCKS)
def _sieve_block(index: int) -> memoryview:
    """All primes in [index * _SIEVE_BLOCK, (index + 1) * _SIEVE_BLOCK), in
    increasing order, as a read-only view of packed machine integers: typecode
    'I' for a block below 2^32 and 'Q' for one above, up to 2^64.  The block's
    odd numbers are sieved with the odd primes up to its square root.  Those
    are read from the lower blocks, since the root is below lo for every
    index >= 1.  Block 0 has no lower block, so it strikes with every odd
    number from 3 up to its root, 255: a composite strikes only numbers that
    its prime factors have already struck.  The primes are packed one at a
    time, so no list of them all is ever built."""
    lo = index * _SIEVE_BLOCK
    hi = lo + _SIEVE_BLOCK
    root = math.isqrt(hi - 1)
    # flags[i] stands for lo + 2i + 1; lo is even.
    flags = bytearray([1]) * (_SIEVE_BLOCK // 2)
    lower = chain.from_iterable(map(_sieve_block, range(root // _SIEVE_BLOCK + 1)))
    for p in takewhile(root.__ge__, islice(lower, 1, None)) if index else range(3, root + 1, 2):
        # the first odd multiple of p from max(p * p, lo) on
        if p * p >= lo:
            first = (p * p - lo) >> 1
        else:
            r = -lo % p
            first = (r if r & 1 else r + p) >> 1
        flags[first::p] = bytes(len(range(first, len(flags), p)))
    if index == 0:
        flags[0] = 0  # 1 is not prime
    typecode = "I" if hi <= 1 << 32 else "Q"
    primes = array(typecode, [2] if index == 0 else [])
    primes.extend(compress(range(lo + 1, hi, 2), flags))
    return memoryview(primes.tobytes()).cast(typecode)


def _prime_factors(x: int, limit: int) -> Iterator[tuple[int, int]]:
    """(p, e), in increasing p, for each prime p <= limit dividing x, x >= 1,
    with p^e the power of p in x.  The package's one trial division: by the
    primes of sieve block 0, those below 2^16, then by odd numbers, up to
    min(limit, sqrt(x)) for what is left of x.  That is then 1, a prime, or a
    product of primes above limit, and a prime is yielded when it is <= limit.
    Block 0 factors every x < 2^32 without a further trial divisor."""
    bound = min(limit, math.isqrt(x))
    table = _sieve_block(0)
    for p in chain(table, range(table[-1] + 2, bound + 1, 2)):
        if p > bound:
            break
        if x % p:
            continue
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        yield p, e
        bound = min(bound, math.isqrt(x))
    if 1 < x <= limit:
        yield x, 1


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
    """The first n primes [2, 3, 5, ...] in increasing order, read from the
    sieve blocks 0, 1, ... until they hold n primes."""
    if n < 1:
        raise ValueError(f"nth_primes requires n >= 1, got {n}")
    return list(islice(chain.from_iterable(map(_sieve_block, count())), n))


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
    # the bound is tested in accept: a stream filtered by it first would walk
    # every value below a lower_bound above the ceiling before raising
    return _first(map(POLYNOMIAL_FORMS[form], count()), lambda v: v >= lower_bound and is_prime(v),
                  ceiling, f"prime of form {form} from {lower_bound}")
