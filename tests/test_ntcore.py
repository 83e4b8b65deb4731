"""Primality, radical, and prime-search checks against independent oracles."""

import math
import random
import tracemalloc
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quaddisc.ntcore as ntcore
from quaddisc.ntcore import (
    DEFAULT_SCAN_CEILING,
    POLYNOMIAL_FORMS,
    ScanCeilingError,
    _first,
    _prime_factors,
    classify_two_power_times_prime,
    first_prime_in_ap,
    first_prime_of_form,
    is_prime,
    nth_primes,
    primes_in_range,
    radical,
)

LIMIT = 10**6


@pytest.fixture(scope="module")
def prime_flags():
    """Sieve of Eratosthenes up to LIMIT, built independently of the library."""
    flags = np.ones(LIMIT + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(LIMIT) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


@pytest.fixture(scope="module")
def smallest_factor():
    """Smallest prime factor table up to LIMIT (spf[1] = 1)."""
    spf = np.arange(LIMIT + 1, dtype=np.int64)
    for p in range(2, math.isqrt(LIMIT) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            sl[sl == np.arange(p * p, LIMIT + 1, p)] = p
    return spf


def trial_division_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def test_is_prime_trivial():
    assert is_prime(2) is True
    assert is_prime(1) is False
    assert is_prime(0) is False


def test_is_prime_48619():
    assert trial_division_prime(48619)
    assert is_prime(48619) is True


def test_is_prime_agrees_with_sieve(prime_flags):
    disagreements = [x for x in range(LIMIT + 1) if is_prime(x) != bool(prime_flags[x])]
    assert disagreements == []


def test_is_prime_witness_divisor_edges():
    # 73 and 193 divide the 28178 witness; 14089 = 73 * 193 must still be caught
    assert is_prime(73) and is_prime(193)
    assert is_prime(14089) is False
    assert is_prime(2305843009213693951) is True  # 2^61 - 1
    # strong pseudoprimes to many small bases
    assert is_prime(3215031751) is False
    assert is_prime(3825123056546413051) is False


def test_is_prime_matches_sympy_across_both_witness_sets(monkeypatch):
    # {2, 7, 61} decides every n < 4,759,123,141 and the 7-base set the rest:
    # all n < 200,000, the strong pseudoprimes to small bases, odd numbers
    # around the switch, and a seeded sample in [2^31, 2^33] on both sides
    sympy = pytest.importorskip("sympy")
    switch = ntcore._MR_SMALL_LIMIT
    rng = random.Random(20261020)
    xs = [*range(200_000), 1_373_653, 9_080_191, 25_326_001, 3_215_031_751, switch,
          *range(switch - 2001, switch + 2001, 2),
          *(rng.randrange(2**31, 2**33) | 1 for _ in range(3000))]
    assert [x for x in xs if is_prime(x) != sympy.isprime(x)] == []
    # the bound is strict: 4,759,123,141 = 48,781 * 97,561 passes all three
    assert switch == 48_781 * 97_561 and is_prime(switch) is False
    monkeypatch.setattr(ntcore, "_MR_SMALL_LIMIT", switch + 1)
    assert is_prime(switch) is True


def test_is_prime_refuses_2_64_and_above():
    # the witness set is proven only below 2^64; 2^64 + 13 is prime, and
    # neither it nor 2^64 gets an answer
    assert is_prime(2**64 - 59) is True  # the largest prime below 2^64
    for n in (2**64, 2**64 + 13, 2**80):
        with pytest.raises(ValueError, match="2\\^64"):
            is_prime(n)


def test_radical_examples():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(36) == 6
    with pytest.raises(ValueError):
        radical(0)


def test_radical_against_factorization(smallest_factor):
    spf = smallest_factor
    for d in range(1, LIMIT + 1, 37):  # arithmetic sample across the full table
        r = radical(d)
        assert d % r == 0
        # squarefree with the same prime set
        x, primes = d, set()
        while x > 1:
            p = int(spf[x])
            primes.add(p)
            while x % p == 0:
                x //= p
        y, rprimes = r, set()
        while y > 1:
            p = int(spf[y])
            assert y % (p * p) != 0
            rprimes.add(p)
            y //= p
        assert primes == rprimes


def test_radical_exhaustive_small(smallest_factor):
    spf = smallest_factor
    for d in range(1, 20001):
        x, prod = d, 1
        while x > 1:
            p = int(spf[x])
            prod *= p
            while x % p == 0:
                x //= p
        assert radical(d) == prod


# Primes for each path of the factoriser: small ones, 65521, the last prime of
# sieve block 0, the primes past it that only the odd-number continuation
# reaches, and primes above every limit drawn below.
_FACTOR_PRIMES = (2, 3, 5, 7, 251, 257, 65521, 65537, 65539, 131071, 4294967311, 2**61 - 1)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_FACTOR_PRIMES), st.integers(1, 4), max_size=4),
       st.integers(1, 2**18))
@example({}, 1)  # x = 1
@example({3: 20}, 10**6)  # a prime power
@example({2: 1, 65539: 1}, 1000)  # a prime cofactor above limit
@example({2: 1, 65539: 1}, 70000)  # a prime cofactor below limit
@example({65537: 2, 65539: 1}, 2**17)  # x >= 2^32, its factors past 2^16
def test_prime_factors_match_factorint(powers, limit):
    sympy = pytest.importorskip("sympy")
    x = math.prod(p**e for p, e in powers.items())
    expected = [(p, e) for p, e in sorted(sympy.factorint(x).items()) if p <= limit]
    assert list(_prime_factors(x, limit)) == expected


def test_prime_query_validation():
    with pytest.raises(ValueError):
        first_prime_in_ap(2, 4, 10)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        first_prime_in_ap(1, 4, 1)  # lower bound below 2
    with pytest.raises(ValueError):
        first_prime_in_ap(1, 0, 2)
    assert first_prime_in_ap(-3, 4, 2) == 5  # negative residue classes are fine


def test_first_prime_in_ap_examples():
    assert first_prime_in_ap(1, 4, 16) == 17
    assert first_prime_in_ap(-3, 4, 25) == 29
    assert first_prime_in_ap(0, 1, 2) == 2


def test_first_prime_in_ap_is_least(prime_flags):
    for modulus in (1, 2, 3, 4, 5, 6, 12, 30):
        for residue in range(modulus):
            if modulus > 1 and math.gcd(residue, modulus) != 1:
                continue
            for lower in (2, 10, 97, 1000, 12345):
                p = first_prime_in_ap(residue, modulus, lower)
                assert prime_flags[p] and p >= lower and p % modulus == residue % modulus
                for x in range(lower, p):  # exhaustive scan below the answer
                    assert not (prime_flags[x] and x % modulus == residue % modulus)


def test_first_prime_in_ap_ceiling():
    with pytest.raises(ScanCeilingError):
        first_prime_in_ap(1, 4, 102, ceiling=104)  # first candidate is 105


def test_first_raises_before_accept_sees_a_candidate_past_the_ceiling():
    seen = []

    def accept(m):
        seen.append(m)
        return m == 7

    assert _first(count(5), accept, 7, "seven") == 7 and seen == [5, 6, 7]
    seen.clear()
    with pytest.raises(ScanCeilingError, match="^seven: no hit at or below ceiling 6$") as info:
        _first(count(5), accept, 6, "seven")
    assert seen == [5, 6] and (info.value.what, info.value.ceiling) == ("seven", 6)


def test_nth_primes(prime_flags):
    assert nth_primes(1) == [2]
    assert nth_primes(3) == [2, 3, 5]
    assert nth_primes(10)[-1] == 29
    ps = nth_primes(1000)
    assert len(ps) == 1000 and ps[-1] == 7919
    # sieve block 0 holds exactly 6,542 primes; the 6,543rd, 65,537, is the
    # first that nth_primes reads from block 1
    expected = np.flatnonzero(prime_flags).tolist()
    for n in (6542, 6543):
        assert nth_primes(n) == expected[:n]
    assert nth_primes(6543)[-1] == 65537
    with pytest.raises(ValueError):
        nth_primes(0)


def test_classify_examples():
    assert classify_two_power_times_prime(1) is True  # 2^0
    assert classify_two_power_times_prime(24) is True  # 3 * 2^3
    assert classify_two_power_times_prime(36) is False  # odd part 9 composite


def test_classify_agrees_with_factorization(prime_flags):
    for m in range(1, LIMIT + 1):
        q = m >> ((m & -m).bit_length() - 1)
        expected = q == 1 or bool(prime_flags[q])
        if classify_two_power_times_prime(m) != expected:
            pytest.fail(f"classification disagrees at m={m}")


def test_first_prime_of_form_examples():
    assert first_prime_of_form("x^2+x+1", 9) == 13
    assert first_prime_of_form("x^2+x+1", 2) == 3
    assert first_prime_of_form("4x^2+1", 6) == 17


def test_first_prime_of_form_errors():
    with pytest.raises(ValueError):
        first_prime_of_form("x^3+1", 2)
    with pytest.raises(ScanCeilingError):
        first_prime_of_form("x^2+x+1", 14, ceiling=20)  # 13 < 14, next form prime is 31


def test_first_prime_of_form_stops_at_the_ceiling_below_its_bound(monkeypatch):
    # the bound is tested value by value, so a bound above the ceiling raises
    # at the first form value past the ceiling: 1, 5, 17, 37, 65, then 101
    xs = []
    monkeypatch.setitem(POLYNOMIAL_FORMS, "4x^2+1", lambda x: xs.append(x) or 4 * x * x + 1)
    with pytest.raises(ScanCeilingError, match=r"^prime of form 4x\^2\+1 from 1000000000: "):
        first_prime_of_form("4x^2+1", 10**9, ceiling=100)
    assert xs == [0, 1, 2, 3, 4, 5]


def test_primes_in_range_matches_flags(prime_flags):
    for lo, hi in [(0, 100), (10, 30), (990000, 1000000), (2, 3), (50, 50)]:
        expected = [x for x in range(max(lo, 0), hi) if x <= LIMIT and prime_flags[x]]
        assert primes_in_range(lo, hi) == expected


def test_primes_in_range_crosses_segments():
    # window straddling the segment size
    seg = 1 << 18
    got = primes_in_range(seg - 100, seg + 100)
    expected = [x for x in range(seg - 100, seg + 100) if trial_division_prime(x)]
    assert got == expected


def test_primes_in_range_cached_blocks(prime_flags):
    # edges of the aligned sieve blocks, degenerate ranges, and one span over
    # more blocks than the cache keeps, each asked twice (the second a hit)
    block = 1 << 16
    cases = [(0, 2), (-5, 3), (1, 2), (2, 2), (7, 7), (9, 3), (-10, -1),
             (block - 50, block + 50), (block - 1, block), (block, block + 1),
             (2 * block - 3, 2 * block + 3), (3 * block - 7, 5 * block + 11), (0, 9 * block + 3)]
    for lo, hi in cases:
        expected = [x for x in range(max(lo, 0), hi) if prime_flags[x]]
        got = primes_in_range(lo, hi)
        assert got == expected, (lo, hi)
        assert all(type(p) is int for p in got)
        got[:] = [1] * len(got)  # a caller's edit must not reach the cache
        assert primes_in_range(lo, hi) == expected, (lo, hi)
    far = 10**9 // block * block  # a block boundary above the flag table
    assert primes_in_range(far - 300, far + 300) == [
        x for x in range(far - 300, far + 300) if trial_division_prime(x)
    ]
    # 65537^2 lies in the first block whose base primes reach 65,537, so they
    # span sieve blocks 0 and 1; the block below takes them from block 0 alone
    sq = 65537 * 65537
    assert primes_in_range(sq - 300, sq + 300) == [
        x for x in range(sq - 300, sq + 300) if is_prime(x)
    ]


def _trial_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), by trial division with the primes up to the
    square root of hi - 1, themselves found by trial division."""
    small = [p for p in range(2, math.isqrt(hi - 1) + 1)
             if all(p % q for q in range(2, math.isqrt(p) + 1))]
    out = list(range(max(lo, 2), hi))
    for p in small:
        out = [x for x in out if x % p or x == p]
    return out


def test_sieve_blocks_are_packed_read_only_views():
    block = 1 << 16
    for index, typecode in ((0, "I"), (1, "I"), (1 << 16, "Q")):  # 2^16 is the first above 2^32
        primes = ntcore._sieve_block(index)
        assert primes.format == typecode and primes.readonly, index
        assert list(primes) == _trial_primes(index * block, (index + 1) * block), index
        with pytest.raises(TypeError):
            primes[0] = 1
    # a block retains its packed primes alone: 6,542 ints as a tuple took 254 KiB
    ntcore._sieve_block.cache_clear()
    tracemalloc.start()
    try:
        ntcore._sieve_block(0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_prime_counts():
    assert len(primes_in_range(0, 10**6 + 1)) == 78498
    assert primes_in_range(0, 2) == []


def test_scan_ceiling_attributes():
    err = ScanCeilingError("anything", 42)
    assert err.ceiling == 42 and "42" in str(err)
    assert DEFAULT_SCAN_CEILING == 2**40
