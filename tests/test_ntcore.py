"""Primality, radical, totient, and prime-search checks against independent oracles."""

import math

import numpy as np
import pytest

from quaddisc.ntcore import (
    DEFAULT_SCAN_CEILING,
    PrimeQuery,
    ScanCeilingError,
    classify_two_power_times_prime,
    euler_phi,
    first_prime_in_ap,
    first_prime_of_form,
    is_prime,
    nth_primes,
    primes_in_range,
    radical,
    simple_sieve,
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


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96


def test_euler_phi_by_gcd_count():
    for d in range(1, 501):
        assert euler_phi(d) == sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)


def test_prime_query_validation():
    with pytest.raises(ValueError):
        PrimeQuery(2, 4, 10)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        PrimeQuery(1, 4, 1)  # lower bound below 2
    with pytest.raises(ValueError):
        PrimeQuery(1, 0, 2)
    PrimeQuery(-3, 4, 2)  # negative residue classes are fine


def test_first_prime_in_ap_examples():
    assert first_prime_in_ap(PrimeQuery(1, 4, 16)) == 17
    assert first_prime_in_ap(PrimeQuery(-3, 4, 25)) == 29
    assert first_prime_in_ap(PrimeQuery(0, 1, 2)) == 2


def test_first_prime_in_ap_is_least(prime_flags):
    for modulus in (1, 2, 3, 4, 5, 6, 12, 30):
        for residue in range(modulus):
            if modulus > 1 and math.gcd(residue, modulus) != 1:
                continue
            for lower in (2, 10, 97, 1000, 12345):
                p = first_prime_in_ap(PrimeQuery(residue, modulus, lower))
                assert prime_flags[p] and p >= lower and p % modulus == residue % modulus
                for x in range(lower, p):  # exhaustive scan below the answer
                    assert not (prime_flags[x] and x % modulus == residue % modulus)


def test_first_prime_in_ap_ceiling():
    with pytest.raises(ScanCeilingError):
        first_prime_in_ap(PrimeQuery(1, 4, 102), ceiling=104)  # first candidate is 105


def test_nth_primes():
    assert nth_primes(1) == [2]
    assert nth_primes(3) == [2, 3, 5]
    assert nth_primes(10)[-1] == 29
    ps = nth_primes(1000)
    assert len(ps) == 1000 and ps[-1] == 7919
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


def test_primes_in_range_matches_simple_sieve(prime_flags):
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


def test_simple_sieve_counts():
    assert len(simple_sieve(10**6)) == 78498
    assert len(simple_sieve(1)) == 0


def test_scan_ceiling_attributes():
    err = ScanCeilingError("anything", 42)
    assert err.ceiling == 42 and "42" in str(err)
    assert DEFAULT_SCAN_CEILING == 2**40
