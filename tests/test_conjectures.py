"""Conjecture checker tests: frozen small cases plus certificate validity."""

import numpy as np
import pytest

from quaddisc.conjectures import (
    PAIR_THRESHOLD,
    conjecture11_check,
    conjecture12_check,
    conjecture13_check,
    conjecture14_check,
    first_prime_with_prime_gap,
)
from quaddisc.discriminator import HalfQuadratic, eval_mod
from quaddisc.ntcore import is_prime, nth_primes


def test_pair_threshold_table():
    assert PAIR_THRESHOLD == {1: 5, 2: 6, 3: 6, 4: 10, 5: 9, 6: 8, 7: 9, 8: 18, 9: 11, 10: 9}


def test_first_prime_with_prime_gap():
    assert first_prime_with_prime_gap(9, 2) == 11
    assert first_prime_with_prime_gap(11, 4) == 13
    assert first_prime_with_prime_gap(17, 10) == 19


def test_conjecture11_examples():
    rep = conjecture11_check(1, 5)
    assert (rep.observed, rep.predicted, rep.agrees) == (11, 11, True)
    rep = conjecture11_check(1, 6)
    assert rep.predicted == 11 and rep.agrees
    rep = conjecture11_check(5, 9)
    assert (rep.observed, rep.predicted, rep.agrees) == (19, 19, True)
    with pytest.raises(ValueError):
        conjecture11_check(0, 5)


def test_conjecture12_examples():
    rep = conjecture12_check(1)
    assert rep.observed == 1 and rep.class_flags == (True, True) and rep.agrees
    rep = conjecture12_check(5)
    assert rep.observed == 11 and rep.agrees
    rep = conjecture12_check(100)
    assert rep.observed == 256 and rep.agrees  # 2^8 and 257 prime


def test_conjecture13_examples():
    rep = conjecture13_check("x^2+x+1", 2, "choose2")
    assert (rep.observed, rep.predicted, rep.agrees) == (3, 3, True)
    rep = conjecture13_check("4x^2+1", 3, "choose2")
    assert (rep.observed, rep.predicted, rep.agrees) == (5, 5, True)
    with pytest.raises(ValueError):
        conjecture13_check("x^2+1", 3)
    with pytest.raises(ValueError):
        conjecture13_check("x^2+x+1", 3, "cubes")


def test_conjecture13_degenerate_n1():
    # x = 0 makes 1 an admissible modulus for a single term; the prediction is
    # the first form prime, so the report shows the disagreement openly
    rep = conjecture13_check("x^2+x+1", 1, "choose2")
    assert rep.observed == 1 and rep.predicted == 3 and not rep.agrees
    assert rep.certificate == {"kind": "unexpected_smaller_modulus", "modulus": 1}


def test_conjecture13_squares_forced_disagreement():
    # when the first form prime >= 2n-1 is exactly 2n-1, the squares variant
    # must collide at that prime: k = n-1, l = n gives l^2 - k^2 = 2n-1
    rep = conjecture13_check("x^2+x+1", 4, "squares")
    assert rep.observed == 13 and rep.predicted == 7 and not rep.agrees
    cert = rep.certificate
    assert cert["kind"] == "predicted_modulus_collides" and cert["modulus"] == 7
    k, l = cert["k"], cert["l"]
    seq = HalfQuadratic.squares()
    assert eval_mod(seq, k, 7) == eval_mod(seq, l, 7)
    assert cert["term_k"] == k * k and cert["term_l"] == l * l


def test_conjecture13_squares_agrees_off_boundary():
    rep = conjecture13_check("x^2+x+1", 3, "squares")
    assert (rep.observed, rep.predicted, rep.agrees) == (7, 7, True)
    rep = conjecture13_check("4x^2+1", 5, "squares")
    assert rep.agrees, rep


def test_conjecture14_examples():
    rep = conjecture14_check(3)
    assert (rep.observed, rep.predicted, rep.agrees) == (5, 5, True)
    rep = conjecture14_check(4)
    assert (rep.observed, rep.predicted, rep.agrees) == (13, 13, True)
    rep = conjecture14_check(10)
    assert rep.agrees and rep.observed == rep.predicted == 37
    with pytest.raises(ValueError):
        conjecture14_check(2)


def test_conjecture14_prediction_matches_divisibility_definition():
    # the membership test against the first prime >= p_n dividing no pair sum;
    # that prime is below 2 p_n, and p_200 = 1223
    primes = [x for x in range(2, 2 * 1223) if all(x % f for f in range(2, int(x**0.5) + 1))]
    observed = 3
    for n in range(3, 201):
        sums = np.array([primes[i] + primes[j] - 1 for i in range(n) for j in range(i + 1, n)])
        q = primes[n - 1]
        while (sums % q == 0).any():
            q = next(p for p in primes if p > q)
        rep = conjecture14_check(n, start=observed)  # D(n-1) <= D(n)
        assert rep.predicted == q, n
        observed = rep.observed


def test_prime_indexed_difference_identity():
    # 6 p_j (p_j - 1) - 6 p_i (p_i - 1) factors as 6 (p_j - p_i)(p_i + p_j - 1)
    primes = nth_primes(40)
    for i in range(0, 40, 7):
        for j in range(i + 1, 40, 5):
            pi, pj = primes[i], primes[j]
            lhs = 6 * pj * (pj - 1) - 6 * pi * (pi - 1)
            assert lhs == 6 * (pj - pi) * (pi + pj - 1)


def test_prime_dividing_no_pair_sum_separates_values():
    # direct check behind the predicted value for the prime-indexed sequence
    n = 12
    primes = nth_primes(n)
    sums = [primes[i] + primes[j] - 1 for i in range(n) for j in range(i + 1, n)]
    q = primes[-1]
    while not (is_prime(q) and all(s % q for s in sums)):
        q += 1
    values = [6 * p * (p - 1) % q for p in primes]
    assert len(set(values)) == n


def test_reports_carry_parameters():
    rep = conjecture11_check(3, 7)
    assert rep.conjecture == "1.1" and rep.params == {"d": 3} and rep.n == 7
    rep = conjecture13_check("4x^2+1", 2, "squares")
    assert rep.params == {"form": "4x^2+1", "variant": "squares"}
