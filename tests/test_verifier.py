"""Verifier checks: constant tables, predictions, class targets, prime windows."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quaddisc import ntcore
from quaddisc.cli import main
from quaddisc.discriminator import APCase, least_modulus
from quaddisc.ntcore import _SIEVE_BLOCK, is_prime, primes_in_range
from quaddisc.tables import (COUNTEREXAMPLE_RESIDUE, PREDICTION_THRESHOLD, THETA_ERROR_BOUND,
                             WINDOW_THRESHOLD)
from quaddisc.verifier import (
    COROLLARY11_THRESHOLD,
    REMARK12_CASES,
    THEOREM12_CASES,
    ModulusClass,
    _window_scan,
    predicted_prime,
    prime_window_all_residues,
    verify_remark12,
    verify_theorem11,
    verify_theorem12,
    window_eps,
)


def test_tables_shape_and_spot_values():
    for table in (PREDICTION_THRESHOLD, COUNTEREXAMPLE_RESIDUE, THETA_ERROR_BOUND, WINDOW_THRESHOLD):
        assert sorted(table) == list(range(4, 37))
    assert PREDICTION_THRESHOLD[4] == 8
    assert PREDICTION_THRESHOLD[31] == 24310
    assert PREDICTION_THRESHOLD[36] == 551
    assert max(PREDICTION_THRESHOLD.values()) == 24310  # the blanket bound is the table max
    assert COUNTEREXAMPLE_RESIDUE[4] == -3 and COUNTEREXAMPLE_RESIDUE[31] == 3
    assert THETA_ERROR_BOUND[4] == 0.002238 and THETA_ERROR_BOUND[36] == 0.009544
    assert WINDOW_THRESHOLD[4] == 79 and WINDOW_THRESHOLD[6] == 103


def test_counterexample_residues_are_coprime_in_range():
    for d, c in COUNTEREXAMPLE_RESIDUE.items():
        assert -d < c < d and math.gcd(c, d) == 1


def test_tables_rows_export(capsys):
    assert main(["tables"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 33
    assert rows[0] == {
        "d": 4,
        "prediction_threshold": 8,
        "counterexample_residue": -3,
        "theta_error": 0.002238,
        "window_threshold": 79,
    }


def test_predicted_prime_examples():
    assert predicted_prime(4, 1, 6) == 17
    assert predicted_prime(4, -3, 9) == 29
    assert predicted_prime(5, -1, 15) == 59


def test_predicted_prime_validation():
    with pytest.raises(ValueError):
        predicted_prime(4, 2, 5)
    with pytest.raises(ValueError):
        predicted_prime(4, 5, 5)
    with pytest.raises(ValueError):
        predicted_prime(1, 0, 5)


def test_predicted_prime_invariants():
    for d in range(4, 13):
        for c in range(-d + 1, d):
            if c == 0 or math.gcd(c, d) != 1:
                continue
            for n in (1, 5, 40, 313):
                p = predicted_prime(d, c, n)
                bound = -((c - 2 * d * n) // (d - 1))  # exact ceiling
                assert is_prime(p) and p % d == c % d and p >= bound
                for x in range(bound, p):  # least class prime above the bound
                    assert not (is_prime(x) and x % d == c % d)


def test_predicted_prime_exact_boundary():
    # (2dn - c)/(d-1) can itself be a class prime; it must then be accepted
    assert predicted_prime(6, 1, 13) == 31  # (156 - 1)/5 = 31 exactly
    rec = verify_theorem11(6, 1, 13)
    assert rec.match and rec.least_m == 31


def test_verify_theorem11_examples():
    rec = verify_theorem11(4, 1, 6)
    assert rec.match and rec.least_m == 17
    rec = verify_theorem11(4, -3, 9)
    assert rec.match and rec.least_m == 29
    rec = verify_theorem11(4, -3, 8)
    assert not rec.match and rec.least_m == 25 and rec.predicted == 29


def _remark11_row(d):
    """The bundled counterexample row of d: its residue at its threshold."""
    return verify_theorem11(d, COUNTEREXAMPLE_RESIDUE[d], PREDICTION_THRESHOLD[d])


def test_verify_remark11_spot_rows(capsys):
    rec = _remark11_row(4)
    assert not rec.match and (PREDICTION_THRESHOLD[4], COUNTEREXAMPLE_RESIDUE[4]) == (8, -3)
    rec = _remark11_row(12)
    assert not rec.match and (PREDICTION_THRESHOLD[12], COUNTEREXAMPLE_RESIDUE[12]) == (27, 5)
    assert main(["verify-remark11", "--d", "37", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid campaign: d must be in [4, 36], got 37\n"


def test_remark11_d6_row_does_not_reproduce():
    # the published (c, n) = (1, 10) row for d = 6 actually matches: 31 is both
    # the discriminator and the predicted class prime (every m in [10, 31)
    # collides).  The genuine last failure for d = 6 sits one lower, at n = 9,
    # where 27 = 3^3 separates the terms while the predicted prime is 31; the
    # bundled row is corrected to that n.
    rec = verify_theorem11(6, 1, 10)
    assert rec.match and rec.least_m == rec.predicted == 31
    rec = _remark11_row(6)
    assert (PREDICTION_THRESHOLD[6], COUNTEREXAMPLE_RESIDUE[6]) == (9, 1)
    assert not rec.match and rec.least_m == 27 and rec.predicted == 31


# Raw-integer certificates for the two corrected table entries: trial division
# and direct residue sets, no library scan or prediction.


def _raw_is_prime(x):
    return x >= 2 and all(x % q for q in range(2, math.isqrt(x) + 1))


def _raw_distinct(terms, m):
    return len({t % m for t in terms}) == len(terms)


def _raw_least_modulus(terms):
    m = len(terms)  # fewer residues than terms always collide
    while not _raw_distinct(terms, m):
        m += 1
    return m


def _raw_first_prime(residue, modulus, bound):
    p = max(bound, 2)
    while not (_raw_is_prime(p) and (p - residue) % modulus == 0):
        p += 1
    return p


def _raw_d6_terms(c, n):
    return [12 * k * (6 * k - c) for k in range(1, n + 1)]  # 2*rad(6) * k * (6k - c)


def test_d6_threshold_correction_certificate():
    assert PREDICTION_THRESHOLD[6] == 9 and COUNTEREXAMPLE_RESIDUE[6] == 1
    # n = 9, c = 1: every m in [9, 27) collides, 27 separates the terms, and the
    # prediction is 31, the first prime == 1 (mod 6) at or above ceil(107/5) = 22
    terms = _raw_d6_terms(1, 9)
    assert not any(_raw_distinct(terms, m) for m in range(9, 27))
    assert _raw_distinct(terms, 27)
    assert _raw_first_prime(1, 6, -(-(2 * 6 * 9 - 1) // 5)) == 31
    # n = 10: every residue's brute-force least modulus is its class prime
    for c in (-5, -1, 1, 5):
        bound = -(-(2 * 6 * 10 - c) // 5)
        assert _raw_least_modulus(_raw_d6_terms(c, 10)) == _raw_first_prime(c, 6, bound), c


def test_remark12_minus_threshold_correction_certificate():
    # 8k(2k - 1) against the first prime >= 4n - 1: n = 4 is the only
    # disagreement in [3, 60], so the certified range starts at 5
    disagreeing = [
        n for n in range(3, 61)
        if _raw_least_modulus([8 * k * (2 * k - 1) for k in range(1, n + 1)])
        != _raw_first_prime(0, 1, 4 * n - 1)
    ]
    assert disagreeing == [4]
    assert REMARK12_CASES["minus"].threshold == 5


@pytest.mark.parametrize(
    "args",
    [
        {"residue": 2, "modulus": 4},
        {"residue": 1, "modulus": 0},
        {"power_base": 1},
        {"power_base": -2},
    ],
)
def test_modulus_class_validation(args):
    with pytest.raises(ValueError):
        ModulusClass(**args)


def _in_class(mc, x):
    """Whether x is a prime == residue (mod modulus), by trial division, or a
    power base^a with a >= 1 of mc's power_base: 1 = 2^0 = 3^0 is neither."""
    prime = x >= 2 and all(x % q for q in range(2, math.isqrt(x) + 1))
    if prime and (x - mc.residue) % mc.modulus == 0:
        return True
    power = mc.power_base
    while power is not None and power < x:
        power *= mc.power_base
    return power == x


_CLASSES = list(dict.fromkeys(
    [case.modulus_class for case in (*THEOREM12_CASES.values(), *REMARK12_CASES.values())]
    + [ModulusClass(-3, 4), ModulusClass(3, 7)]))


@pytest.mark.parametrize("mc", _CLASSES)
def test_first_at_least_matches_linear_scan(mc):
    for bound in (0, 1, 2, 3, 9, 17, 28, 97, 243, 1024, 2500, 6561, 65536):
        x = max(bound, 1)
        while not _in_class(mc, x):
            x += 1
        assert mc.first_at_least(bound) == x


def test_verify_theorem12_examples():
    rec = verify_theorem12("3k-1", 4)
    assert rec.predicted == 13 and rec.match
    rec = verify_theorem12("2k-1", 5)
    assert rec.predicted == 19 and rec.match
    rec = verify_theorem12("2k+1", 8)
    assert rec.predicted == 32 and rec.match  # 2^5 is the admissible target here
    with pytest.raises(ValueError):
        verify_theorem12("5k-1", 10)


def test_theorem12_case_table():
    # sequence factors, thresholds, and target bounds for the six cases
    spec = {
        "2k-1": (4, 2, -1, 5, ModulusClass(power_base=2), 4, -1),
        "2k+1": (4, 2, 1, 7, ModulusClass(power_base=2), 4, 0),
        "3k-1": (6, 3, -1, 4, ModulusClass(1, 3, power_base=3), 3, 0),
        "3k+1": (6, 3, 1, 5, ModulusClass(2, 3, power_base=3), 3, 0),
        "3k-2": (6, 3, -2, 3, ModulusClass(2, 3, power_base=3), 3, -1),
        "3k+2": (6, 3, 2, 8, ModulusClass(1, 3, power_base=3), 3, 0),
    }
    assert set(THEOREM12_CASES) == set(spec)
    for cid, (outer, slope, shift, thr, modulus_class, bs, bo) in spec.items():
        case = THEOREM12_CASES[cid]
        assert (case.outer, case.slope, case.shift) == (outer, slope, shift)
        assert case.threshold == thr
        assert case.modulus_class == modulus_class
        assert (case.bound_slope, case.bound_shift) == (bs, bo)


def test_verify_remark12_examples():
    rec = verify_remark12("minus", 3)
    assert rec.predicted == 11 and rec.match
    rec = verify_remark12("plus", 9)
    assert rec.predicted == 37 and rec.match
    rec = verify_remark12("minus", 100)
    assert rec.predicted == 401 and rec.match
    assert REMARK12_CASES["minus"].threshold == 5
    assert REMARK12_CASES["plus"].threshold == 9
    with pytest.raises(ValueError):
        verify_remark12("both", 5)


def test_corollary_thresholds():
    assert COROLLARY11_THRESHOLD == {
        (4, 1): 6, (4, -1): 6, (5, 1): 8, (5, 2): 10, (5, -1): 15, (5, -2): 5,
    }
    # the d=5 thresholds are sharp: the record just below each fails
    for (d, c), thr in COROLLARY11_THRESHOLD.items():
        if d != 5:
            continue
        assert verify_theorem11(d, c, thr - 1).match is False
        assert verify_theorem11(d, c, thr).match is True


def test_corollary_prediction_shape():
    # the d=4 and d=5 specializations use the general prediction rule
    assert predicted_prime(4, 1, 6) == 17  # first class prime >= (8*6-1)/3
    assert predicted_prime(5, -2, 5) == 13  # first prime == 3 (mod 5) >= (50+2)/4
    rec = verify_theorem11(5, -2, 5)
    assert rec.match and rec.least_m == 13


def window_oracle(d, n, eps=None):
    """Independent re-derivation: explicit rational bounds, per-integer primality."""
    if eps is None:
        eps = Fraction(2, max(11, d) - 2)
    lo = Fraction(2 * d * n, d - 1)
    hi = (Fraction(2) + eps) * n - 2
    hi = hi * d / (d - 1)
    present = set()
    x = max(2, math.floor(lo))
    while True:
        if Fraction(x) >= hi:
            break
        if Fraction(x) > lo and is_prime(x):
            present.add(x % d)
        x += 1
    return all(a in present for a in range(d) if math.gcd(a, d) == 1)


def test_window_examples():
    assert prime_window_all_residues(4, 79) is True
    assert prime_window_all_residues(4, 78) is False
    assert prime_window_all_residues(6, 103) is True


def test_window_matches_oracle():
    for d in (4, 5, 6, 7):
        for n in range(60, 130):
            assert prime_window_all_residues(d, n) == window_oracle(d, n), (d, n)


def test_window_matches_oracle_for_all_d_and_eps():
    # both ends are open, so the n include some where an end is a whole number:
    # 2dn/(d-1) is whole when (d-1) | 2n
    outcomes = set()
    whole_hi = 0
    for d in range(4, 37):
        for eps in (None, Fraction(1, 200), Fraction(2, 9), Fraction(1), Fraction(7, 3)):
            e = window_eps(d) if eps is None else eps
            hi_whole = [n for n in range(60, 60 + e.denominator * (d - 1))
                        if (((2 + e) * n - 2) * d / (d - 1)).denominator == 1]
            whole_hi += bool(hi_whole)
            for n in {60, 61, 62, 3 * (d - 1), 6 * (d - 1), *hi_whole[:2]}:
                got = prime_window_all_residues(d, n, eps)
                assert got == window_oracle(d, n, eps), (d, eps, n)
                outcomes.add(got)
    assert outcomes == {True, False}
    assert whole_hi > 100  # of the 165 (d, eps) pairs
    # an open end that decides: at d = 4, eps = 1/200, n = 1850 the window is
    # (4933.33.., 4943) and the prime 4943 would complete the classes
    assert is_prime(4943)
    assert prime_window_all_residues(4, 1850, Fraction(1, 200)) is False
    assert window_oracle(4, 1850, Fraction(1, 200)) is False


def test_window_thresholds_are_sharp_for_small_d():
    # bundled threshold = last failing n + 1, reproduced exactly for d = 4, 5, 6
    for d, last_fail in ((4, 78), (5, 205), (6, 102)):
        assert prime_window_all_residues(d, last_fail) is False
        assert prime_window_all_residues(d, last_fail + 1) is True
        assert WINDOW_THRESHOLD[d] == last_fail + 1


def test_window_d7_entry_does_not_reproduce():
    # the d=7 slice fails above the bundled threshold 333: the interval
    # (1092, 1211) at n = 468 holds no prime == 6 (mod 7) (the class-6 primes
    # jump from 1091 to 1217), and the gap covers n = 468..470; from 471 the
    # property holds locally (checked to 20000 during development)
    for n in (468, 469, 470):
        assert prime_window_all_residues(7, n) is False
    assert prime_window_all_residues(7, 471) is True
    assert prime_window_all_residues(7, 467) is True


def window_first(d, n):
    """The least integer inside the window: 2dn/(d-1) is its open lower end."""
    return 2 * d * n // (d - 1) + 1


def test_window_cover_table_matches_oracle_at_block_edges():
    # windows that start within a few hundred of k * 2^16 walk from one sieve
    # block into the next
    rng = random.Random("cover-edges")
    outcomes = set()
    for d in range(4, 65):  # 37..64 lie outside the bundled tables
        for k in (1, 2, 3):
            n = k * _SIEVE_BLOCK * (d - 1) // (2 * d) + rng.randint(-150, 150)
            eps = None if (d + k) % 2 else Fraction(rng.randint(1, 50), 1000)
            got = prime_window_all_residues(d, n, eps)
            assert got == window_oracle(d, n, eps), (d, n, eps)
            outcomes.add(got)
    assert outcomes == {True, False}
    # 65521 is the last prime below 2^16, so this window's primes all lie in
    # block 1
    d, n = 5, 26212
    assert window_first(d, n) == 65531
    outcomes = set()
    for eps in (Fraction(1, 2000), Fraction(1, 1000)):
        got = prime_window_all_residues(d, n, eps)
        assert got == window_oracle(d, n, eps), eps
        outcomes.add(got)
    assert outcomes == {True, False}


def test_window_cover_falls_back_for_wide_windows():
    # 2999 is prime: its 2998 classes need more primes than two sieve blocks
    # hold, so only a window wide enough to hold those primes passes
    d, n = 2999, 1000
    outcomes = set()
    for eps in (Fraction(50), Fraction(200)):
        got = prime_window_all_residues(d, n, eps)
        assert got == window_oracle(d, n, eps), eps
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("d,eps,most", [(4, None, 3), (2999, Fraction(200), 16)])
def test_window_walk_sieves_few_blocks(d, eps, most):
    # the window of n = 10^9 spans about 3 * 10^6 sieve blocks for d = 2999
    # and eps = 200, but its first primes meet every class, so the walk stops
    # after a few blocks, block 0 (the base primes) among them
    ntcore._sieve_block.cache_clear()
    try:
        assert prime_window_all_residues(d, 10**9, eps) is True
        assert ntcore._sieve_block.cache_info().misses <= most
    finally:
        ntcore._sieve_block.cache_clear()


@st.composite
def _walk_intervals(draw):
    """d and [first, last]: an interval of up to 3 * 2^16 + 1 integers that
    starts within 3000 of a sieve block edge, or an empty one."""
    d = draw(st.integers(4, 64))
    first = draw(st.integers(1, 4)) * _SIEVE_BLOCK + draw(st.integers(-3000, 3000))
    width = draw(st.one_of(st.integers(-5, 0), st.integers(0, 4000),
                           st.integers(0, 3 * _SIEVE_BLOCK)))
    return d, first, first + width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_walk_intervals())
def test_window_scan_matches_the_primes_of_its_interval(case):
    d, first, last = case
    seen = {p % d for p in primes_in_range(first, last + 1)}
    assert _window_scan(d, first, last) == (seen >= {a for a in range(d) if math.gcd(a, d) == 1})


def test_window_eps_default():
    assert window_eps(4) == Fraction(2, 9)
    assert window_eps(11) == Fraction(2, 9)
    assert window_eps(12) == Fraction(2, 10)
    assert window_eps(36) == Fraction(2, 34)


def test_window_eps_override_and_validation():
    # a much smaller eps shrinks the window until some class misses its prime
    assert prime_window_all_residues(4, 79, Fraction(1, 200)) is False
    with pytest.raises(ValueError):
        prime_window_all_residues(3, 10)
    with pytest.raises(ValueError):
        prime_window_all_residues(4, 0)


def test_least_modulus_agrees_with_theorem_slice():
    # a short certified stretch for each small d, using the bundled residues
    for d in (4, 5, 6):
        c = COUNTEREXAMPLE_RESIDUE[d]
        for n in range(PREDICTION_THRESHOLD[d] + 1, PREDICTION_THRESHOLD[d] + 8):
            rec = verify_theorem11(d, c, n)
            assert rec.match, rec
