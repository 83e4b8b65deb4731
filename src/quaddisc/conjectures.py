"""Checkers for the four open conjectures about binomial and prime-indexed sequences.

Each checker recomputes the observed discriminator and the conjectured value
from scratch and returns their Outcome.  A disagreement is not swallowed: the
outcome's extra fields carry a certificate (an explicit colliding pair, or the
unexpected modulus) precise enough to reproduce the finding independently.
"""

from __future__ import annotations

from itertools import count, takewhile

from .discriminator import HalfQuadratic, _first_collision, _scan, _separates, least_modulus_pair
from .ntcore import (
    DEFAULT_SCAN_CEILING,
    POLYNOMIAL_FORMS,
    Outcome,
    _first,
    classify_two_power_times_prime,
    first_prime_in_ap,
    first_prime_of_form,
    is_prime,
    nth_primes,
)

# Conjectured thresholds: for gap parameter d, agreement is expected from this n on.
PAIR_THRESHOLD = {1: 5, 2: 6, 3: 6, 4: 10, 5: 9, 6: 8, 7: 9, 8: 18, 9: 11, 10: 9}

#: The sequence variants of the polynomial-form conjecture checker, by name:
#: binomial(k, 2), which conjectures 1.1 and 1.2 use too, and k^2.
VARIANTS = {"choose2": HalfQuadratic(1, -1), "squares": HalfQuadratic(2, 0)}


def _outcome(observed: int, predicted: int, collision, **extra) -> Outcome:
    """observed against predicted, with the certificate of why they differ:
    collision(predicted) when observed is larger, the certificate of a
    colliding pair (or None, which writes none), else the smaller modulus that
    already works, with the fields extra."""
    if observed == predicted:
        return Outcome(observed, predicted, True)
    if observed > predicted:
        cert = collision(predicted)
    else:
        cert = {"kind": "unexpected_smaller_modulus", "modulus": observed, **extra}
    return Outcome(observed, predicted, False, None if cert is None else {"certificate": cert})


def _collision(values: list[int], m: int, fields: tuple[str, str, str, str]) -> dict | None:
    """The first pair of values that collides modulo m, as a certificate under
    the field names fields (two indices counted from 1, then their two values),
    or None when the values are distinct modulo m."""
    pair = _first_collision(v % m for v in values)
    if pair is None:
        return None
    i, j = pair
    name_i, name_j, value_i, value_j = fields
    return {"kind": "predicted_modulus_collides", "modulus": m, name_i: i, name_j: j,
            value_i: values[i - 1], value_j: values[j - 1]}


# The certificate fields of a colliding pair of f(1..n), for conjectures 1.1 and 1.3.
_TERM_FIELDS = ("k", "l", "term_k", "term_l")


def first_prime_with_prime_gap(
    lower_bound: int, gap: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """Least prime p >= lower_bound with p + gap also prime.

    Existence for every even gap is the open de Polignac question, hence the
    ceiling.
    """
    return _first(count(max(2, lower_bound)), lambda p: is_prime(p) and is_prime(p + gap),
                  ceiling, f"prime pair (gap {gap}) from {lower_bound}")


def conjecture11_check(d: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Least m making binomial(k,2) pairwise distinct modulo both m and m + 2d,
    each modulus tested by divisor class (_separates), versus the first prime
    p >= 2n - 1 with p + 2d also prime."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    seq = VARIANTS["choose2"]
    gap = 2 * d
    observed = least_modulus_pair(seq, n, gap, ceiling=ceiling)
    predicted = first_prime_with_prime_gap(2 * n - 1, gap, ceiling)

    def collision(m):
        terms = [seq.term(k) for k in range(1, n + 1)]
        return (_collision(terms, m, _TERM_FIELDS) or _collision(terms, m + gap, _TERM_FIELDS)
                or {"kind": "inconsistent", "observed": observed, "predicted": predicted})

    return _outcome(observed, predicted, collision, partner=observed + gap)


def conjecture12_check(n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Least m making binomial(k,2) pairwise distinct modulo both m and m + 1,
    each modulus tested by divisor class (_separates); the claim is that m and
    m + 1 are each a power of two or a prime times a power of two.
    The extra fields are the flags of m and m + 1, then the certificate of a
    failure."""
    seq = VARIANTS["choose2"]
    m = least_modulus_pair(seq, n, 1, ceiling=ceiling)
    flags = [classify_two_power_times_prime(m), classify_two_power_times_prime(m + 1)]
    agrees = flags[0] and flags[1]
    extra = {"flags": flags}
    if not agrees:
        offender = m if not flags[0] else m + 1
        q = offender >> ((offender & -offender).bit_length() - 1)
        extra["certificate"] = {"kind": "classification_failure", "modulus": offender,
                                "odd_part": q}
    return Outcome(m, None, agrees, extra)


def conjecture13_check(
    form: str,
    n: int,
    variant: str = "choose2",
    ceiling: int = DEFAULT_SCAN_CEILING,
) -> Outcome:
    """Least modulus OF THE GIVEN POLYNOMIAL FORM making the variant sequence
    pairwise distinct, versus the first form prime >= 2n - 1.

    x ranges over integers >= 0, so the form value 1 is an admissible modulus
    exactly when n = 1; no lower threshold on n is imposed, and small-n
    disagreements are reported rather than suppressed.
    """
    if form not in POLYNOMIAL_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(POLYNOMIAL_FORMS)}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    seq = VARIANTS[variant]
    f = POLYNOMIAL_FORMS[form]
    observed = _scan((form, seq), n, lambda lower: (v for v in map(f, count(0)) if v >= lower),
                     lambda v: _separates(seq, n, v), ceiling, f"form modulus {form} for n={n}")
    predicted = first_prime_of_form(form, max(2, 2 * n - 1), ceiling)
    return _outcome(observed, predicted, lambda m: _collision(
        [seq.term(k) for k in range(1, n + 1)], m, _TERM_FIELDS))


def _is_pair_sum(t: int, primes: list[int], members: set[int]) -> bool:
    """Whether t = p_i + p_j for two of the ascending primes, i < j: a walk
    down p_j while p_j > t - p_j, each step one lookup in members, their set."""
    return any(t - p in members for p in takewhile(lambda p: 2 * p > t, reversed(primes)))


def conjecture14_check(n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Least m making 6*p_k*(p_k - 1) (k = 1..n) pairwise distinct, versus the
    first prime >= p_n dividing none of the pair sums p_i + p_j - 1."""
    if n <= 2:
        raise ValueError(f"n must be > 2, got {n}")
    primes = nth_primes(n)
    values = [6 * p * (p - 1) for p in primes]
    observed = _scan("1.4", n, count, lambda m: _first_collision(v % m for v in values) is None,
                     ceiling, f"prime-indexed discriminator at n={n}")
    # Every sum s has 4 <= s <= p_(n-1) + p_n - 1 < 2 p_n <= 2q, so q | s iff
    # s == q.  So the answer is the first prime q from p_n on with q + 1 no
    # p_i + p_j, and every prime >= 2 p_n is one.  A larger n only adds sums
    # and raises p_n, so the answer never falls: a scan of its own key starts
    # at the last one found.  It never starts at the observed modulus, which
    # bounds it too: an observed scan that overshot would confirm itself.
    def primes_from(lower):
        q = max(lower, primes[-1]) - 1
        while True:
            q = first_prime_in_ap(0, 1, q + 1, ceiling)
            yield q

    members = set(primes)
    predicted = _scan("1.4 prediction", n, primes_from,
                      lambda q: not _is_pair_sum(q + 1, primes, members), ceiling,
                      f"prime-indexed prediction at n={n}")
    return _outcome(observed, predicted,
                    lambda m: _collision(values, m, ("i", "j", "value_i", "value_j")))
