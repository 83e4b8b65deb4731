"""Checkers for the four open conjectures about binomial and prime-indexed sequences.

Each checker recomputes the observed discriminator and the conjectured value
from scratch and reports agreement.  A disagreement is not swallowed: the
report carries a certificate (an explicit colliding pair, or the unexpected
modulus) precise enough to reproduce the finding independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count

from .discriminator import (
    HalfQuadratic,
    collision_witness,
    least_modulus_pair,
    pairwise_distinct,
    residue_count,
)
from .ntcore import (
    DEFAULT_SCAN_CEILING,
    POLYNOMIAL_FORMS,
    PrimeQuery,
    ScanCeilingError,
    classify_two_power_times_prime,
    first_prime_in_ap,
    first_prime_of_form,
    is_prime,
    nth_primes,
    primes_in_range,
)

# Conjectured thresholds: for gap parameter d, agreement is expected from this n on.
PAIR_THRESHOLD = {1: 5, 2: 6, 3: 6, 4: 10, 5: 9, 6: 8, 7: 9, 8: 18, 9: 11, 10: 9}

#: Sequence variants admitted by the polynomial-form conjecture checker.
VARIANTS = ("choose2", "squares")


@dataclass(frozen=True)
class ConjectureReport:
    """One (conjecture, parameter set, n) check."""

    conjecture: str
    params: dict
    n: int
    observed: int
    predicted: int | None
    agrees: bool
    certificate: dict | None = None
    class_flags: tuple[bool, bool] | None = None
    elapsed_ms: int = 0


def _variant_seq(variant: str) -> HalfQuadratic:
    if variant == "choose2":
        return HalfQuadratic.choose_two()
    if variant == "squares":
        return HalfQuadratic.squares()
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _pair_disagreement_certificate(
    seq: HalfQuadratic, n: int, gap: int, observed: int, predicted: int
) -> dict:
    """Why observed != predicted for a gapped discriminator: either the predicted
    modulus (or its partner) collides, or a smaller modulus already works."""
    if observed > predicted:
        for m in (predicted, predicted + gap):
            if residue_count(seq, n, m) != n:
                k, l = collision_witness(seq, n, m)
                return {
                    "kind": "predicted_modulus_collides",
                    "modulus": m,
                    "k": k,
                    "l": l,
                    "term_k": seq.term(k),
                    "term_l": seq.term(l),
                }
        return {"kind": "inconsistent", "observed": observed, "predicted": predicted}
    return {
        "kind": "unexpected_smaller_modulus",
        "modulus": observed,
        "partner": observed + gap,
    }


def first_prime_with_prime_gap(
    lower_bound: int, gap: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """Least prime p >= lower_bound with p + gap also prime.

    Existence for every even gap is the open de Polignac question, hence the
    ceiling.
    """
    p = first_prime_in_ap(PrimeQuery(0, 1, max(2, lower_bound)), ceiling)
    while True:
        if is_prime(p + gap):
            return p
        p = first_prime_in_ap(PrimeQuery(0, 1, p + 1), ceiling)


def conjecture11_check(
    d: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> ConjectureReport:
    """Least m making binomial(k,2) full-count modulo both m and m + 2d, versus
    the first prime p >= 2n - 1 with p + 2d also prime.  start is the pair
    scan's first modulus (see least_modulus_pair)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t0 = time.perf_counter()
    seq = HalfQuadratic.choose_two()
    gap = 2 * d
    observed = least_modulus_pair(seq, n, gap, ceiling=ceiling, start=start)
    predicted = first_prime_with_prime_gap(2 * n - 1, gap, ceiling)
    agrees = observed == predicted
    cert = None if agrees else _pair_disagreement_certificate(seq, n, gap, observed, predicted)
    ms = int((time.perf_counter() - t0) * 1000)
    return ConjectureReport("1.1", {"d": d}, n, observed, predicted, agrees, cert, None, ms)


def conjecture12_check(
    n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> ConjectureReport:
    """Least m making binomial(k,2) full-count modulo both m and m + 1; the claim
    is that m and m + 1 are each a power of two or a prime times a power of two.
    start is the pair scan's first modulus (see least_modulus_pair)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t0 = time.perf_counter()
    seq = HalfQuadratic.choose_two()
    m = least_modulus_pair(seq, n, 1, ceiling=ceiling, start=start)
    flags = (classify_two_power_times_prime(m), classify_two_power_times_prime(m + 1))
    agrees = flags[0] and flags[1]
    cert = None
    if not agrees:
        offender = m if not flags[0] else m + 1
        q = offender >> ((offender & -offender).bit_length() - 1)
        cert = {"kind": "classification_failure", "modulus": offender, "odd_part": q}
    ms = int((time.perf_counter() - t0) * 1000)
    return ConjectureReport("1.2", {}, n, m, None, agrees, cert, flags, ms)


def conjecture13_check(
    form: str,
    n: int,
    variant: str = "choose2",
    ceiling: int = DEFAULT_SCAN_CEILING,
    *,
    start: int | None = None,
) -> ConjectureReport:
    """Least modulus OF THE GIVEN POLYNOMIAL FORM making the variant sequence
    pairwise distinct, versus the first form prime >= 2n - 1.

    x ranges over integers >= 0, so the form value 1 is an admissible modulus
    exactly when n = 1; no lower threshold on n is imposed, and small-n
    disagreements are reported rather than suppressed.  The scan tests form
    values from start on (default n, the pigeonhole bound), which must be a
    proven lower bound of the answer.
    """
    if form not in POLYNOMIAL_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(POLYNOMIAL_FORMS)}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t0 = time.perf_counter()
    seq = _variant_seq(variant)
    f = POLYNOMIAL_FORMS[form]
    start = n if start is None else start
    observed = None
    for x in count(0):
        v = f(x)
        if v > ceiling:
            raise ScanCeilingError(f"form modulus {form} for n={n}", ceiling)
        if v >= start and pairwise_distinct(seq, n, v):
            observed = v
            break
    predicted = first_prime_of_form(form, max(2, 2 * n - 1), ceiling)
    agrees = observed == predicted
    cert = None
    if not agrees:
        if observed > predicted:
            k, l = collision_witness(seq, n, predicted)
            cert = {
                "kind": "predicted_modulus_collides",
                "modulus": predicted,
                "k": k,
                "l": l,
                "term_k": seq.term(k),
                "term_l": seq.term(l),
            }
        else:
            cert = {"kind": "unexpected_smaller_modulus", "modulus": observed}
    ms = int((time.perf_counter() - t0) * 1000)
    return ConjectureReport(
        "1.3", {"form": form, "variant": variant}, n, observed, predicted, agrees, cert, None, ms
    )


def _values_distinct(values: list[int], m: int) -> bool:
    return len({v % m for v in values}) == len(values)


def conjecture14_check(
    n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> ConjectureReport:
    """Least m making 6*p_k*(p_k - 1) (k = 1..n) pairwise distinct, versus the
    first prime >= p_n dividing none of the pair sums p_i + p_j - 1.  The scan
    starts at start (default n), a proven lower bound of the answer."""
    if n <= 2:
        raise ValueError(f"n must be > 2, got {n}")
    t0 = time.perf_counter()
    primes = nth_primes(n)
    values = [6 * p * (p - 1) for p in primes]
    observed = None
    for m in count(n if start is None else start):
        if m > ceiling:
            raise ScanCeilingError(f"prime-indexed discriminator at n={n}", ceiling)
        if _values_distinct(values, m):
            observed = m
            break
    sums = {primes[i] + primes[j] - 1 for i in range(n) for j in range(i + 1, n)}
    # Every sum s has 4 <= s <= p_(n-1) + p_n - 1 < 2 p_n <= 2q, so q | s iff
    # s == q.  So the answer is the first prime from p_n on that is no sum, and
    # every prime >= 2 p_n is none.
    p_n = primes[-1]
    walked = p_n  # the walk has passed every integer below this
    for predicted in primes_in_range(p_n, min(2 * p_n, ceiling + 1)):
        if predicted not in sums:
            break
        walked = predicted + 1
    else:
        # the first prime from walked on is >= 2 p_n, or above the ceiling
        predicted = first_prime_in_ap(PrimeQuery(0, 1, walked), ceiling)
    agrees = observed == predicted
    cert = None
    if not agrees:
        if observed > predicted:
            seen: dict[int, int] = {}
            for i, v in enumerate(values):
                r = v % predicted
                if r in seen:
                    cert = {
                        "kind": "predicted_modulus_collides",
                        "modulus": predicted,
                        "i": seen[r] + 1,
                        "j": i + 1,
                        "value_i": values[seen[r]],
                        "value_j": values[i],
                    }
                    break
                seen[r] = i
        else:
            cert = {"kind": "unexpected_smaller_modulus", "modulus": observed}
    ms = int((time.perf_counter() - t0) * 1000)
    return ConjectureReport("1.4", {}, n, observed, predicted, agrees, cert, None, ms)
