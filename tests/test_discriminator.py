"""Discriminator checks against a brute-force residue oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quaddisc.conjectures as conjectures
import quaddisc.discriminator as discriminator
from quaddisc.cli import main
from quaddisc.conjectures import conjecture13_check
from quaddisc.discriminator import (
    APCase,
    HalfQuadratic,
    _divisors_upto,
    _separates,
    collision_witness,
    least_modulus,
    least_modulus_pair,
    pairwise_distinct,
    pairwise_distinct_fast,
)
from quaddisc.ntcore import ScanCeilingError, radical
from quaddisc.tables import EXIT_OK


# --- oracle: direct residue computation, no shared code with the library paths ---

def brute_residues(seq, n, m):
    return [((seq.a * k * k + seq.b * k) // 2) % m for k in range(1, n + 1)]


def brute_distinct(seq, n, m):
    return len(set(brute_residues(seq, n, m))) == n


def brute_least(seq, n):
    m = 1
    while not brute_distinct(seq, n, m):
        m += 1
    return m


def coprime_cs(d):
    return [c for c in range(-d + 1, d) if c != 0 and math.gcd(c, d) == 1]


SEQ_4K4K1 = HalfQuadratic.from_factors(4, 4, -1)  # 4k(4k-1)
CHOOSE2 = HalfQuadratic(1, -1)


def test_halfquadratic_validation():
    with pytest.raises(ValueError):
        HalfQuadratic(1, 2)  # odd sum: half-values not integral
    assert HalfQuadratic(2, 0).term(5) == 25
    assert [CHOOSE2.term(k) for k in range(1, 6)] == [0, 1, 3, 6, 10]
    assert SEQ_4K4K1.a == 32 and SEQ_4K4K1.b == -8
    assert [SEQ_4K4K1.term(k) for k in range(1, 4)] == [12, 56, 132]


def test_apcase_validation():
    with pytest.raises(ValueError):
        APCase(1, 0)
    with pytest.raises(ValueError):
        APCase(4, 2)  # not coprime
    with pytest.raises(ValueError):
        APCase(4, 4)  # outside (-d, d)
    case = APCase(4, 1)
    assert case.rad == 2
    assert case.seq == SEQ_4K4K1


@pytest.mark.parametrize("d", range(2, 13))
def test_apcase_product_identity(d):
    # the derived sequence really is 2*rad(d)*k*(d*k - c), checked termwise
    r = radical(d)
    for c in coprime_cs(d):
        seq = APCase(d, c).seq
        for k in range(0, 11):
            assert (seq.a * k * k + seq.b * k) // 2 == 2 * r * k * (d * k - c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.integers(-500, 500), parity=st.integers(0, 1), k=st.integers(1, 10**4))
def test_half_values_are_integers(a, parity, k):
    b = 2 * parity - a
    assert (a * k * k + b * k) % 2 == 0


def test_pairwise_distinct_examples():
    assert brute_residues(SEQ_4K4K1, 6, 17) == [12, 5, 13, 2, 6, 8]
    assert pairwise_distinct(SEQ_4K4K1, 6, 17) is True
    assert pairwise_distinct(SEQ_4K4K1, 6, 16) is False  # f(1) = 12 = f(5) mod 16
    assert brute_residues(SEQ_4K4K1, 5, 16)[0] == brute_residues(SEQ_4K4K1, 5, 16)[4]
    assert pairwise_distinct(CHOOSE2, 1, 1) is True


def test_pairwise_distinct_matches_oracle_grid():
    for seq in (SEQ_4K4K1, CHOOSE2, HalfQuadratic(2, 0), APCase(7, -5).seq):
        for n in (1, 2, 3, 5, 17, 64, 65, 66, 130):
            for m in (1, 2, 3, n - 1, n, n + 1, 2 * n + 7, 509, 510):
                if m < 1:
                    continue
                assert pairwise_distinct(seq, n, m) == brute_distinct(seq, n, m), (seq, n, m)


def test_pigeonhole():
    for n in (2, 5, 50, 200):
        for m in range(1, n):
            assert pairwise_distinct(CHOOSE2, n, m) is False


def test_monotone_witness():
    # once a collision appears it never goes away as n grows
    seq = APCase(5, 2).seq
    for m in range(2, 300):
        failed = False
        for n in range(2, 130):
            ok = pairwise_distinct(seq, n, m)
            if failed:
                assert not ok
            failed = failed or not ok


def test_least_modulus_examples():
    assert least_modulus(SEQ_4K4K1, 6) == 17 == brute_least(SEQ_4K4K1, 6)
    seq = HalfQuadratic.from_factors(4, 2, -1)
    assert least_modulus(seq, 5) == 19 == brute_least(seq, 5)
    assert least_modulus(CHOOSE2, 1) == 1
    with pytest.raises(ValueError):
        least_modulus(CHOOSE2, 0)


def test_least_modulus_scan_start_is_safe():
    # the pigeonhole start at m = n, and the warm start from an earlier n,
    # return the same value as scanning every m from 1
    for seq in (SEQ_4K4K1, CHOOSE2, APCase(9, 2).seq):
        for n in (2, 3, 7, 20, 55):
            m_star = least_modulus(seq, n)
            assert m_star == brute_least(seq, n)
            for m in range(n, m_star):
                assert not pairwise_distinct(seq, n, m)


def test_least_modulus_rejects_inseparable_sequences():
    with pytest.raises(ValueError):
        least_modulus(HalfQuadratic(2, -6), 3)  # k^2 - 3k: f(1) = f(2) = -2
    with pytest.raises(ValueError):
        least_modulus(HalfQuadratic(0, 0), 2)
    # but small n that misses the coincidence is fine
    assert least_modulus(HalfQuadratic(2, -6), 1) == 1


@pytest.mark.parametrize("b", [2, 4, -6])
def test_least_modulus_of_a_linear_sequence(b):
    # a = 0 and b != 0: f(k) = bk/2 has no two equal terms, which
    # _check_separable lets through to the scan
    seq = HalfQuadratic(0, b)
    for n in range(1, 41):
        assert least_modulus(seq, n) == brute_least(seq, n)


def test_least_modulus_ceiling():
    with pytest.raises(ScanCeilingError):
        least_modulus(CHOOSE2, 10, ceiling=5)


@pytest.fixture
def scanned(monkeypatch):
    """The (n, m) of every candidate modulus the scans test, from no hint on."""
    monkeypatch.setattr(discriminator, "_hints", {})
    checked = []
    real = discriminator._separates

    def counting(seq, n, m):
        checked.append((n, m))
        return real(seq, n, m)

    monkeypatch.setattr(discriminator, "_separates", counting)
    monkeypatch.setattr(conjectures, "_separates", counting)
    return checked


def test_scan_starts_at_last_least_modulus(scanned):
    seq = APCase(9, 2).seq
    d40 = least_modulus(seq, 40)
    assert d40 > 50
    scanned.clear()
    assert least_modulus(seq, 50) == brute_least(seq, 50)
    assert scanned[0] == (50, d40)  # D(40) <= D(50): nothing below it is tested


def test_scan_ceiling_error_keeps_hint(scanned):
    seq = APCase(9, 2).seq
    least_modulus(seq, 40)
    hints = dict(discriminator._hints)
    with pytest.raises(ScanCeilingError):
        least_modulus(seq, 60, ceiling=120)  # D(60) = 137
    assert scanned and discriminator._hints == hints
    assert least_modulus(seq, 60) == brute_least(seq, 60)


def test_scan_hints_keep_the_last_64_keys(scanned):
    # a 65th key drops the least recently found one; a key found again is
    # the most recent, and keeps its hint
    seqs = [HalfQuadratic(2, 2 * b) for b in range(65)]
    for seq in seqs[:64]:
        least_modulus(seq, 10)
    d12 = least_modulus(seqs[0], 12)
    least_modulus(seqs[64], 10)
    assert len(discriminator._hints) == 64
    assert seqs[1] not in discriminator._hints and discriminator._hints[seqs[0]] == (12, d12)
    scanned.clear()
    least_modulus(seqs[0], 14)
    assert scanned[0] == (14, max(14, d12))
    scanned.clear()
    least_modulus(seqs[1], 14)
    assert scanned[0] == (14, 14)  # dropped: cold


def test_scan_starts_at_n_below_last_or_for_another_key(scanned):
    seq = APCase(9, 2).seq
    least_modulus(seq, 60)
    scanned.clear()
    least_modulus(seq, 50)
    assert scanned[0] == (50, 50)  # D(60) bounds no smaller n
    least_modulus_pair(CHOOSE2, 60, 2)
    scanned.clear()
    least_modulus_pair(CHOOSE2, 70, 4)
    assert scanned[0] == (70, 70)  # another gap
    conjecture13_check("x^2+x+1", 60)
    scanned.clear()
    conjecture13_check("4x^2+1", 70)
    assert scanned[0] == (70, 101)  # another form: its first value from 70 on


def test_least_modulus_pair_examples():
    assert least_modulus_pair(CHOOSE2, 5, 2) == 11
    assert least_modulus_pair(CHOOSE2, 1, 2) == 1
    assert least_modulus_pair(CHOOSE2, 6, 4) == 13
    with pytest.raises(ValueError):
        least_modulus_pair(CHOOSE2, 5, 0)


def test_least_modulus_pair_against_oracle():
    def brute_pair(seq, n, gap):
        m = 1
        while not (brute_distinct(seq, n, m) and brute_distinct(seq, n, m + gap)):
            m += 1
        return m

    for n in (2, 5, 9, 24):
        for gap in (1, 2, 6):
            assert least_modulus_pair(CHOOSE2, n, gap) == brute_pair(CHOOSE2, n, gap)


def test_fast_path_trivial():
    case = APCase(5, -1)
    assert pairwise_distinct_fast(case, 1, 1) is True
    assert pairwise_distinct_fast(APCase(4, 1), 6, 17) is True
    assert pairwise_distinct_fast(APCase(4, 1), 6, 16) is False


@pytest.mark.parametrize("d", range(2, 13))
def test_fast_path_equals_baseline_small_grid(d):
    # dense corner of the oracle-equivalence grid; the full sampled sweep is
    # exercised by the acceptance suite
    for c in coprime_cs(d):
        case = APCase(d, c)
        seq = case.seq
        for n in (1, 2, 3, 5, 12, 30):
            for m in range(1, 130):
                assert pairwise_distinct_fast(case, n, m) == pairwise_distinct(seq, n, m)


def test_separates_matches_occupancy_on_random_sequences():
    # the divisor-class kernel against the occupancy oracle on seeded
    # (a, b, n, m) with n <= m, including a = 0, negative a and b, and
    # sequences with two exactly equal terms
    rng = random.Random(20261018)
    bad = []
    seen = {"a=0": 0, "a<0": 0, "b<0": 0, "h does not divide b": 0, "M/h odd": 0, "M/h even": 0}
    for _ in range(200_000):
        a = rng.randint(-40, 40)
        b = rng.randint(-30, 30) * 2 + (a & 1)  # a + b even
        n = rng.randint(1, 60)
        m = rng.randint(n, 400)
        seq = HalfQuadratic(a, b)
        if _separates(seq, n, m) != pairwise_distinct(seq, n, m):
            bad.append((a, b, n, m))
        seen["a=0"] += a == 0
        seen["a<0"] += a < 0
        seen["b<0"] += b < 0
        for big_m in (2 * m, m):  # the classes g = 1 and g = 2
            h = math.gcd(a, big_m)
            if b % h:
                seen["h does not divide b"] += 1
            else:
                seen["M/h even" if big_m // h % 2 == 0 else "M/h odd"] += 1
    assert bad == []
    assert min(seen.values()) > 1000, seen


def test_separates_matches_occupancy_on_apcase_grid():
    for d in range(4, 37):
        for c in coprime_cs(d):
            seq = APCase(d, c).seq
            for n in (2, 3, 8, 25):
                for m in range(n, 3 * n + 10):
                    assert _separates(seq, n, m) == pairwise_distinct(seq, n, m), (d, c, n, m)


def test_least_modulus_pair_matches_occupancy_oracle():
    def oracle_pair(seq, n, gap):
        m = n
        while not (pairwise_distinct(seq, n, m) and pairwise_distinct(seq, n, m + gap)):
            m += 1
        return m

    for gap in (1, *(2 * d for d in range(1, 11))):
        for n in range(2, 41):
            assert least_modulus_pair(CHOOSE2, n, gap) == oracle_pair(CHOOSE2, n, gap), (n, gap)


def test_divisors_upto_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = [*range(1, 2001), 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2**41,
          65537 * 65539, 2 * 65537 * 65539, 2 * 4294967311,  # 4294967311 is prime
          # prime factors between 2^12 and 2^16, which the trial table holds
          4099 * 4111, 2 * 65521**2, 65521 * 65537]
    for x in xs:
        divisors = sympy.divisors(x)
        for limit in (1, 2, 3, 10, 97, 5000, 10**6, x):
            assert sorted(_divisors_upto(x, limit)) == [g for g in divisors if g <= limit], (x, limit)


def test_collision_witness():
    assert collision_witness(SEQ_4K4K1, 6, 17) is None
    k, l = collision_witness(SEQ_4K4K1, 6, 16)
    assert 1 <= k < l <= 6
    assert SEQ_4K4K1.term(k) % 16 == SEQ_4K4K1.term(l) % 16


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ab=st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda ab: sum(ab) % 2 == 0),
       n=st.integers(1, 60), m=st.integers(1, 400))
def test_collision_witness_is_the_first_repeat(ab, n, m):
    # The library's residue stream against the test's own residues: the first
    # l whose residue repeats an earlier one, and the first k that it repeats.
    seq = HalfQuadratic(*ab)
    values = brute_residues(seq, n, m)
    first = next(((values.index(v) + 1, l) for l, v in enumerate(values, 1)
                  if values.index(v) + 1 < l), None)
    assert collision_witness(seq, n, m) == first
    assert pairwise_distinct(seq, n, m) is (first is None)


def test_lemma22_slice():
    # distinctness modulo a prime in the scan window happens exactly for class
    # primes above the lower bound (single-d slice; full suite in acceptance)
    from fractions import Fraction

    from quaddisc.ntcore import is_prime

    d = 5
    eps = Fraction(2, 9)
    for c in coprime_cs(d):
        case = APCase(d, c)
        n = 3 * d
        hi = (d * ((2 + eps) * n - 1) - c) / (d - 1)
        lower = Fraction(d * (2 * n - 1) - c, d - 1)
        p = 2
        while p <= hi:
            if is_prime(p):
                expected = (p % d == c % d) and p > lower
                assert pairwise_distinct(case.seq, n, p) == expected, (c, p)
            p += 1


def test_paper_closed_forms(capsys):
    # 2k(k-1) = HalfQuadratic(4, -4): the least modulus is the least prime
    # above 2n - 2.  18k(3k-1) = HalfQuadratic(108, -36): from n = 4 on it is
    # the least prime p > 3n with p == 1 (mod 3), and n = 1, 2, 3 give 1, 5, 5.
    # The primes come from trial division, independent of the library.
    primes = [p for p in range(2, 6200) if all(p % f for f in range(2, math.isqrt(p) + 1))]

    def least_prime(above, residue=0, modulus=1):
        return next(p for p in primes if p > above and p % modulus == residue)

    ns = range(2, 2001)
    assert [least_modulus(HalfQuadratic(4, -4), n) for n in ns] == [
        least_prime(2 * n - 2) for n in ns]
    assert [least_modulus(HalfQuadratic(108, -36), n) for n in range(1, 2001)] == [
        1, 5, 5, *(least_prime(3 * n, 1, 3) for n in range(4, 2001))]
    assert main(["discriminator", "--A", "4", "--B", "-4", "--n-from", "2", "--n-to", "300",
                 "--no-timing", "--parallelism", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f'{{"cmd":"discriminator","A":4,"B":-4,"n":{n},"least_m":{least_prime(2 * n - 2)},'
        f'"predicted":null,"match":null,"ms":0}}\n' for n in range(2, 301))
