"""Conjecture checker tests: frozen small cases plus certificate validity."""

import random
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quaddisc.conjectures as conjectures
import quaddisc.discriminator as discriminator
from quaddisc.cli import main
from quaddisc.conjectures import (
    PAIR_THRESHOLD,
    conjecture11_check,
    conjecture12_check,
    conjecture13_check,
    conjecture14_check,
    first_prime_with_prime_gap,
)
from quaddisc.discriminator import HalfQuadratic, least_modulus
from quaddisc.ntcore import DEFAULT_SCAN_CEILING, ScanCeilingError, is_prime, nth_primes
from quaddisc.tables import EXIT_MISMATCH

from conftest import dispatch


def test_pair_threshold_table():
    assert PAIR_THRESHOLD == {1: 5, 2: 6, 3: 6, 4: 10, 5: 9, 6: 8, 7: 9, 8: 18, 9: 11, 10: 9}


def test_first_prime_with_prime_gap():
    assert first_prime_with_prime_gap(9, 2) == 11
    assert first_prime_with_prime_gap(11, 4) == 13
    assert first_prime_with_prime_gap(17, 10) == 19


def test_conjecture11_examples():
    rep = conjecture11_check(1, 5)
    assert (rep.least_m, rep.predicted, rep.match) == (11, 11, True)
    rep = conjecture11_check(1, 6)
    assert rep.predicted == 11 and rep.match
    rep = conjecture11_check(5, 9)
    assert (rep.least_m, rep.predicted, rep.match) == (19, 19, True)
    with pytest.raises(ValueError):
        conjecture11_check(0, 5)


def test_conjecture12_examples():
    rep = conjecture12_check(1)
    assert rep.least_m == 1 and rep.extra["flags"] == [True, True] and rep.match
    rep = conjecture12_check(5)
    assert rep.least_m == 11 and rep.match
    rep = conjecture12_check(100)
    assert rep.least_m == 256 and rep.match  # 2^8 and 257 prime


def test_conjecture12_classification_failure(monkeypatch, capsys):
    # a pair 24, 25 whose second modulus is not a prime times a power of two:
    # the certificate names it and its odd part, and the campaign counts the
    # record as unexpected
    monkeypatch.setattr(conjectures, "least_modulus_pair", lambda *args, **kwargs: 24)
    rep = conjecture12_check(5)
    assert rep.extra["flags"] == [True, False] and not rep.match
    assert list(rep.extra["certificate"].items()) == [
        ("kind", "classification_failure"), ("modulus", 25), ("odd_part", 25)]
    assert main(["conjecture", "--id", "1.2", "--n-from", "5", "--n-to", "5",
                 "--no-timing", "--parallelism", "1"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == ('{"cmd":"conjecture","id":"1.2","n":5,"least_m":24,"predicted":null,'
                   '"match":false,"ms":0,"flags":[true,false],"certificate":'
                   '{"kind":"classification_failure","modulus":25,"odd_part":25}}\n')
    assert "unexpected=1 " in err


def test_conjecture13_examples():
    rep = conjecture13_check("x^2+x+1", 2, "choose2")
    assert (rep.least_m, rep.predicted, rep.match) == (3, 3, True)
    rep = conjecture13_check("4x^2+1", 3, "choose2")
    assert (rep.least_m, rep.predicted, rep.match) == (5, 5, True)
    with pytest.raises(ValueError):
        conjecture13_check("x^2+1", 3)
    with pytest.raises(ValueError):
        conjecture13_check("x^2+x+1", 3, "cubes")


def test_conjecture13_degenerate_n1():
    # x = 0 makes 1 an admissible modulus for a single term; the prediction is
    # the first form prime, so the report shows the disagreement openly
    rep = conjecture13_check("x^2+x+1", 1, "choose2")
    assert rep.least_m == 1 and rep.predicted == 3 and not rep.match
    assert list(rep.extra["certificate"].items()) == [
        ("kind", "unexpected_smaller_modulus"), ("modulus", 1)]


def test_conjecture13_squares_forced_disagreement():
    # when the first form prime >= 2n-1 is exactly 2n-1, the squares variant
    # must collide at that prime: k = n-1, l = n gives l^2 - k^2 = 2n-1
    rep = conjecture13_check("x^2+x+1", 4, "squares")
    assert rep.least_m == 13 and rep.predicted == 7 and not rep.match
    cert = rep.extra["certificate"]
    assert list(cert) == ["kind", "modulus", "k", "l", "term_k", "term_l"]
    assert cert["kind"] == "predicted_modulus_collides" and cert["modulus"] == 7
    k, l = cert["k"], cert["l"]
    seq = HalfQuadratic(2, 0)
    assert seq.term(k) % 7 == seq.term(l) % 7
    assert cert["term_k"] == k * k and cert["term_l"] == l * l


def test_conjecture13_squares_agrees_off_boundary():
    rep = conjecture13_check("x^2+x+1", 3, "squares")
    assert (rep.least_m, rep.predicted, rep.match) == (7, 7, True)
    rep = conjecture13_check("4x^2+1", 5, "squares")
    assert rep.match, rep


def test_conjecture14_examples():
    rep = conjecture14_check(3)
    assert (rep.least_m, rep.predicted, rep.match) == (5, 5, True)
    rep = conjecture14_check(4)
    assert (rep.least_m, rep.predicted, rep.match) == (13, 13, True)
    rep = conjecture14_check(10)
    assert rep.match and rep.least_m == rep.predicted == 37
    with pytest.raises(ValueError):
        conjecture14_check(2)


def test_conjecture14_prediction_matches_divisibility_definition():
    # the membership test against the first prime >= p_n dividing no pair sum;
    # that prime is below 2 p_n, and p_200 = 1223
    primes = [x for x in range(2, 2 * 1223) if all(x % f for f in range(2, int(x**0.5) + 1))]
    for n in range(3, 201):
        sums = np.array([primes[i] + primes[j] - 1 for i in range(n) for j in range(i + 1, n)])
        q = primes[n - 1]
        while (sums % q == 0).any():
            q = next(p for p in primes if p > q)
        rep = conjecture14_check(n)  # ascending n: each scan starts at D(n-1)
        assert rep.predicted == q, n


def test_conjecture14_prediction_matches_pair_sum_definition(monkeypatch):
    # the first prime q >= p_n with q + 1 no sum p_i + p_j (i < j <= n), in a
    # shuffled order of n; at n = 6, 14, 15, 21 and 127 every prime in
    # [p_n, 2 p_n) is such a sum.  Every 8th n, 65 other keys are scanned
    # first, which evicts the prediction's hint
    monkeypatch.setattr(discriminator, "_hints", {})
    primes = _first_primes(250)  # p_250 = 1583 > 2 p_130
    ns = random.Random("pair-sums").sample(range(3, 131), 128)
    for step, n in enumerate(ns):
        if step % 8 == 0:
            for b in range(65):
                least_modulus(HalfQuadratic(2, 2 * b), 2)
            assert len(discriminator._hints) == 64 and "1.4 prediction" not in discriminator._hints
        sums = {primes[i] + primes[j] for i in range(n) for j in range(i + 1, n)}
        q = next(q for q in primes if q >= primes[n - 1] and q + 1 not in sums)
        assert conjecture14_check(n).predicted == q, n
        assert (q > 2 * primes[n - 1]) == (n in (6, 14, 15, 21, 127)), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.integers(-300, 300), min_size=1, max_size=60),
       m=st.integers(1, 200))
def test_first_collision_agrees_with_the_residue_count(values, m):
    # the early-exit loop that the 1.4 scan accepts by, against the full count
    # of distinct residues; the small value range makes residues repeat
    assert (discriminator._first_collision(v % m for v in values) is None) == (
        len({v % m for v in values}) == len(values))


def test_conjecture14_observed_matches_brute_force(monkeypatch):
    # the least m >= n with 6 p (p - 1) pairwise distinct modulo m, counted
    # here from a set of residues: ascending n = 3..150 (warm scans), then a
    # shuffled sample of larger n and n = 400, each scanned cold
    monkeypatch.setattr(discriminator, "_hints", {})
    primes = _first_primes(400)

    def least(n):
        values = [6 * p * (p - 1) for p in primes[:n]]
        return next(m for m in count(n) if len({v % m for v in values}) == n)

    sample = random.Random("observed-1.4").sample(range(151, 300), 8)
    for n in [*range(3, 151), *sample, 400]:
        if n > 150:
            discriminator._hints.clear()
        assert conjecture14_check(n).least_m == least(n), n


def test_conjecture11_refuses_values_from_2_64():
    # p + 2d = 13 + 2^64 would be tested for primality beyond the proven range
    with pytest.raises(ValueError, match="2\\^64"):
        conjecture11_check(2**63, 5)


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
    # a check returns what it found of n; the record of n adds its parameters
    rec = dispatch("conjecture", {"id": "1.1", "d": 3, "ceiling": DEFAULT_SCAN_CEILING}, 7)
    assert (rec["id"], rec["d"], rec["n"]) == ("1.1", 3, 7)
    rec = dispatch("conjecture", {"id": "1.3", "form": "4x^2+1", "variant": "squares",
                                  "ceiling": DEFAULT_SCAN_CEILING}, 2)
    assert (rec["form"], rec["variant"]) == ("4x^2+1", "squares")


def _first_primes(n):
    """The first n primes by trial division, independent of the library."""
    primes = []
    x = 2
    while len(primes) < n:
        if all(x % p for p in primes):
            primes.append(x)
        x += 1
    return primes


@pytest.mark.parametrize("n", [4, 10, 25, 60])
def test_conjecture14_collision_certificate(monkeypatch, n):
    # with no pair sums the prediction is p_n itself, below the observed value,
    # so the report must name the first pair of values that collide modulo p_n
    monkeypatch.setattr(discriminator, "_hints", {})
    monkeypatch.setattr(conjectures, "_is_pair_sum", lambda t, primes, members: False)
    primes = _first_primes(n)
    rep = conjecture14_check(n)
    assert rep.predicted == primes[-1] < rep.least_m and not rep.match
    if n == 10:
        assert (rep.least_m, rep.predicted) == (37, 29)
    cert = rep.extra["certificate"]
    assert list(cert) == ["kind", "modulus", "i", "j", "value_i", "value_j"]
    assert cert["kind"] == "predicted_modulus_collides" and cert["modulus"] == rep.predicted
    q, i, j = rep.predicted, cert["i"], cert["j"]
    assert 1 <= i < j <= n
    values = [6 * p * (p - 1) for p in primes]
    assert (cert["value_i"], cert["value_j"]) == (values[i - 1], values[j - 1])
    assert (cert["value_j"] - cert["value_i"]) % q == 0
    assert len({v % q for v in values[: j - 1]}) == j - 1  # no earlier j repeats a residue


@pytest.mark.parametrize("d,n", [(1, 10), (3, 20)])
def test_conjecture11_collision_certificate(monkeypatch, d, n):
    # a prediction of 2n - 1 itself is below the observed value, so the report
    # must name the first colliding pair modulo 2n - 1, or else modulo 2n - 1 + 2d
    monkeypatch.setattr(conjectures, "first_prime_with_prime_gap",
                        lambda lower_bound, gap, ceiling: lower_bound)
    rep = conjecture11_check(d, n)
    predicted, gap = 2 * n - 1, 2 * d
    assert rep.predicted == predicted < rep.least_m and not rep.match
    cert = rep.extra["certificate"]
    assert list(cert) == ["kind", "modulus", "k", "l", "term_k", "term_l"]
    assert cert["kind"] == "predicted_modulus_collides"
    m, k, l = cert["modulus"], cert["k"], cert["l"]
    terms = [x * (x - 1) // 2 for x in range(1, n + 1)]
    if m == predicted + gap:
        assert len({t % predicted for t in terms}) == n  # predicted itself separates them
    else:
        assert m == predicted
    assert 1 <= k < l <= n
    assert (cert["term_k"], cert["term_l"]) == (terms[k - 1], terms[l - 1])
    assert (cert["term_l"] - cert["term_k"]) % m == 0
    assert len({t % m for t in terms[: l - 1]}) == l - 1  # no earlier l repeats a residue


def test_conjecture11_smaller_modulus_certificate_names_its_partner():
    # at n = 1 the modulus 1 separates a single term, below the predicted 3
    rep = conjecture11_check(1, 1)
    assert (rep.least_m, rep.predicted, rep.match) == (1, 3, False)
    assert list(rep.extra["certificate"].items()) == [
        ("kind", "unexpected_smaller_modulus"), ("modulus", 1), ("partner", 3)]


def test_conjecture11_inconsistent_certificate(monkeypatch):
    # an observed value above a prediction that collides at neither modulus
    # contradicts the scan itself, and the report says so
    least_modulus_pair = conjectures.least_modulus_pair

    def one_above(seq, n, gap, ceiling):
        return least_modulus_pair(seq, n, gap, ceiling=ceiling) + 1

    monkeypatch.setattr(conjectures, "least_modulus_pair", one_above)
    monkeypatch.setattr(conjectures, "first_prime_with_prime_gap",
                        lambda lower_bound, gap, ceiling: 11)
    rep = conjecture11_check(1, 5)
    assert (rep.least_m, rep.predicted, rep.match) == (12, 11, False)
    assert list(rep.extra["certificate"].items()) == [
        ("kind", "inconsistent"), ("observed", 12), ("predicted", 11)]


def test_conjecture14_smaller_modulus_certificate(monkeypatch):
    # with every t <= 2 p_n a pair sum, the prediction is the first prime from
    # 2 p_n on: 59 for n = 10, above the observed 37
    monkeypatch.setattr(discriminator, "_hints", {})
    monkeypatch.setattr(conjectures, "_is_pair_sum", lambda t, primes, members: t <= 2 * primes[-1])
    rep = conjecture14_check(10)
    assert (rep.least_m, rep.predicted, rep.match) == (37, 59, False)
    assert list(rep.extra["certificate"].items()) == [
        ("kind", "unexpected_smaller_modulus"), ("modulus", 37)]
    # under a ceiling of 50, the primes 29..47 are sums and none follows them
    with pytest.raises(ScanCeilingError, match=r"prime == 0 \(mod 1\) from 48: .* 50$"):
        conjecture14_check(10, ceiling=50)
