"""Verifier checks: constant tables, predictions, class targets, prime windows."""

import math
from fractions import Fraction

import pytest

from quaddisc.discriminator import APCase, least_modulus
from quaddisc.ntcore import is_prime
from quaddisc.verifier import (
    COROLLARY11_THRESHOLD,
    COUNTEREXAMPLE_RESIDUE,
    PREDICTION_THRESHOLD,
    REMARK12_CASES,
    TABLES,
    THEOREM12_CASES,
    THETA_ERROR_BOUND,
    WINDOW_THRESHOLD,
    ModulusClass,
    VerificationRecord,
    class_member,
    predicted_prime,
    prime_window_all_residues,
    verify_remark11,
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


def test_tables_rows_export():
    rows = TABLES.rows()
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


def test_verification_record_consistency_guard():
    with pytest.raises(ValueError):
        VerificationRecord("x", 4, 1, 6, 17, 19, True, 0)


def test_verify_theorem11_examples():
    rec = verify_theorem11(4, 1, 6)
    assert rec.match and rec.least_m == 17
    rec = verify_theorem11(4, -3, 9)
    assert rec.match and rec.least_m == 29
    rec = verify_theorem11(4, -3, 8)
    assert not rec.match and rec.least_m == 25 and rec.predicted == 29


def test_verify_remark11_spot_rows():
    rec = verify_remark11(4)
    assert not rec.match and rec.n == 8 and rec.c == -3
    rec = verify_remark11(12)
    assert not rec.match and rec.n == 27 and rec.c == 5
    with pytest.raises(ValueError):
        verify_remark11(37)


def test_remark11_d6_row_does_not_reproduce():
    # the published (c, n) = (1, 10) row for d = 6 actually matches: 31 is both
    # the discriminator and the predicted class prime (every m in [10, 31)
    # collides).  The genuine last failure for d = 6 sits one lower, at n = 9,
    # where 27 = 3^3 separates the terms while the predicted prime is 31; the
    # bundled row is corrected to that n.
    rec = verify_theorem11(6, 1, 10)
    assert rec.match and rec.least_m == rec.predicted == 31
    rec = verify_remark11(6)
    assert rec.n == 9 and rec.c == 1
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


def test_class_member_examples():
    assert class_member(ModulusClass("prime_or_pow2"), 16) is True
    assert class_member(ModulusClass("prime_1mod3_or_pow3"), 13) is True
    assert class_member(ModulusClass("prime_2mod3_or_pow3"), 13) is False


def test_class_member_power_reading():
    # powers enter with exponent >= 1; 1 = 2^0 = 3^0 is not a member
    assert not ModulusClass("prime_or_pow2").member(1)
    assert ModulusClass("prime_or_pow2").member(2)
    assert ModulusClass("prime_1mod3_or_pow3").member(3)
    assert ModulusClass("prime_2mod3_or_pow3").member(27)
    assert not ModulusClass("prime_1mod3_or_pow3").member(7 * 9)
    assert ModulusClass("prime_in_ap", residue=-3, modulus=4).member(13)
    with pytest.raises(ValueError):
        ModulusClass("prime_in_ap")
    with pytest.raises(ValueError):
        ModulusClass("evens")


@pytest.mark.parametrize(
    "mc",
    [
        ModulusClass("prime_any"),
        ModulusClass("prime_or_pow2"),
        ModulusClass("prime_1mod3_or_pow3"),
        ModulusClass("prime_2mod3_or_pow3"),
        ModulusClass("prime_in_ap", residue=3, modulus=7),
    ],
)
def test_first_at_least_matches_linear_scan(mc):
    for bound in (2, 3, 9, 17, 28, 97, 243, 1024, 2500):
        x = max(bound, 2)
        while not mc.member(x):
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
        "2k-1": (4, 2, -1, 5, "prime_or_pow2", 4, -1),
        "2k+1": (4, 2, 1, 7, "prime_or_pow2", 4, 0),
        "3k-1": (6, 3, -1, 4, "prime_1mod3_or_pow3", 3, 0),
        "3k+1": (6, 3, 1, 5, "prime_2mod3_or_pow3", 3, 0),
        "3k-2": (6, 3, -2, 3, "prime_2mod3_or_pow3", 3, -1),
        "3k+2": (6, 3, 2, 8, "prime_1mod3_or_pow3", 3, 0),
    }
    assert set(THEOREM12_CASES) == set(spec)
    for cid, (outer, slope, shift, thr, kind, bs, bo) in spec.items():
        case = THEOREM12_CASES[cid]
        assert (case.outer, case.slope, case.shift) == (outer, slope, shift)
        assert case.threshold == thr
        assert case.modulus_class.kind == kind
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
