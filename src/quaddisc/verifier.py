"""Executable verification of the certified statements about quadratic discriminators.

Each verifier computes the discriminator of a concrete sequence and compares it
with the closed-form prediction (a first prime in an arithmetic progression, or
the first member of a prime-or-prime-power class above an explicit bound).  The
constant tables bundled here drive the counterexample suite and the certified
n-ranges of the campaigns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .discriminator import APCase, HalfQuadratic, least_modulus
from .ntcore import (
    DEFAULT_SCAN_CEILING,
    PrimeQuery,
    first_prime_in_ap,
    is_prime,
    primes_in_range,
)

# For each modulus d = 4..36: the least n beyond which the discriminator of the
# canonical sequence is certified to equal the predicted progression prime.
# d = 6 is corrected from the published 10 to 9: at n = 10 every residue
# c in {-5, -1, 1, 5} matches, and the last mismatch of any c is at n = 9
# (c = 1: 27 = 3^3 separates the terms, the predicted prime is 31).
PREDICTION_THRESHOLD = {
    4: 8, 5: 14,
    6: 9,  # published as 10
    7: 100, 8: 21, 9: 315, 10: 53,
    11: 1067, 12: 27, 13: 1074, 14: 122, 15: 809, 16: 329,
    17: 5115, 18: 95, 19: 5390, 20: 755, 21: 3672, 22: 640,
    23: 11193, 24: 220, 25: 12810, 26: 1207, 27: 7087,
    28: 2036, 29: 13250, 30: 177, 31: 24310, 32: 3678,
    33: 12794, 34: 5303, 35: 15628, 36: 551,
}

# Residue classes witnessing that the thresholds above are sharp: at n equal to
# the threshold, the discriminator for this residue is NOT the predicted prime.
COUNTEREXAMPLE_RESIDUE = {
    4: -3, 5: -1, 6: 1, 7: -5, 8: 1, 9: 2, 10: 3,
    11: -7, 12: 5, 13: -5, 14: -5, 15: -1, 16: 11,
    17: 15, 18: 1, 19: 6, 20: -9, 21: 1, 22: 5,
    23: 21, 24: 1, 25: 19, 26: -3, 27: 23,
    28: -9, 29: -1, 30: 17, 31: 3, 32: -1,
    33: -5, 34: 15, 35: 12, 36: 23,
}

# Relative error bounds for the weighted prime count over each progression,
# valid from 1e10 on; analytic input consumed as given constants.
THETA_ERROR_BOUND = {
    4: 0.002238, 5: 0.002785, 6: 0.002238, 7: 0.003248, 8: 0.002811,
    9: 0.003228, 10: 0.002785, 11: 0.004125, 12: 0.002781, 13: 0.004560,
    14: 0.003248, 15: 0.008634, 16: 0.008994, 17: 0.010746, 18: 0.003228,
    19: 0.011892, 20: 0.008501, 21: 0.009708, 22: 0.004125, 23: 0.012682,
    24: 0.008173, 25: 0.012214, 26: 0.004560, 27: 0.011579, 28: 0.009908,
    29: 0.014102, 30: 0.008634, 31: 0.014535, 32: 0.011103, 33: 0.011685,
    34: 0.010746, 35: 0.012809, 36: 0.009544,
}

# Least n from which every coprime residue class gets a prime inside the scan
# window (computed thresholds; the desk-scale check revisits a slice of them).
WINDOW_THRESHOLD = {
    4: 79, 5: 206, 6: 103, 7: 333, 8: 301, 9: 356, 10: 232,
    11: 1079, 12: 346, 13: 1166, 14: 806, 15: 1310, 16: 2183,
    17: 5153, 18: 1135, 19: 5402, 20: 2388, 21: 4059, 22: 2934,
    23: 11246, 24: 2480, 25: 13144, 26: 4775, 27: 11646,
    28: 5314, 29: 13478, 30: 5215, 31: 24334, 32: 8964,
    33: 15044, 34: 14748, 35: 16896, 36: 9847,
}


@dataclass(frozen=True)
class ConstantTables:
    """The four bundled d-indexed tables, d = 4..36."""

    prediction_threshold: dict[int, int]
    counterexample_residue: dict[int, int]
    theta_error: dict[int, float]
    window_threshold: dict[int, int]

    def rows(self) -> list[dict]:
        return [
            {
                "d": d,
                "prediction_threshold": self.prediction_threshold[d],
                "counterexample_residue": self.counterexample_residue[d],
                "theta_error": self.theta_error[d],
                "window_threshold": self.window_threshold[d],
            }
            for d in sorted(self.prediction_threshold)
        ]


TABLES = ConstantTables(
    PREDICTION_THRESHOLD, COUNTEREXAMPLE_RESIDUE, THETA_ERROR_BOUND, WINDOW_THRESHOLD
)


def window_eps(d: int) -> Fraction:
    """Default window width parameter 2 / (max(11, d) - 2)."""
    return Fraction(2, max(11, d) - 2)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def predicted_prime(
    d: int, c: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """First prime p == c (mod d) with p >= (2dn - c) / (d - 1), exact arithmetic."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not -d < c < d:
        raise ValueError(f"c must lie in (-{d}, {d}), got {c}")
    if math.gcd(c, d) != 1:
        raise ValueError(f"c={c} and d={d} must be coprime")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bound = max(2, _ceil_div(2 * d * n - c, d - 1))
    return first_prime_in_ap(PrimeQuery(c, d, bound), ceiling)


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one discriminator-versus-prediction comparison."""

    descriptor: str
    d: int | None
    c: int | None
    n: int
    least_m: int
    predicted: int
    match: bool
    elapsed_ms: int

    def __post_init__(self):
        if self.match != (self.least_m == self.predicted):
            raise ValueError("match flag inconsistent with least_m/predicted")


def _record(descriptor, d, c, n, least_m, predicted, t0) -> VerificationRecord:
    ms = int((time.perf_counter() - t0) * 1000)
    return VerificationRecord(
        descriptor, d, c, n, least_m, predicted, least_m == predicted, ms
    )


def verify_theorem11(
    d: int, c: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> VerificationRecord:
    """Compare the discriminator of the canonical (d, c) sequence with the
    predicted progression prime; the match is certified for n above
    PREDICTION_THRESHOLD[d] when 4 <= d <= 36.  start is the discriminator
    scan's first modulus (see least_modulus)."""
    t0 = time.perf_counter()
    case = APCase(d, c)
    least = least_modulus(case.seq, n, ceiling=ceiling, start=start)
    predicted = predicted_prime(d, c, n, ceiling)
    return _record("theorem11", d, c, n, least, predicted, t0)


def verify_remark11(d: int, ceiling: int = DEFAULT_SCAN_CEILING) -> VerificationRecord:
    """Run the bundled counterexample for d: at n = PREDICTION_THRESHOLD[d] with
    the bundled residue, the match is expected to FAIL."""
    if d not in PREDICTION_THRESHOLD:
        raise ValueError(f"d must be in [4, 36], got {d}")
    rec = verify_theorem11(d, COUNTEREXAMPLE_RESIDUE[d], PREDICTION_THRESHOLD[d], ceiling)
    return VerificationRecord(
        "remark11", rec.d, rec.c, rec.n, rec.least_m, rec.predicted, rec.match, rec.elapsed_ms
    )


# --- admissible modulus classes -------------------------------------------------

_CLASS_KINDS = (
    "prime_in_ap",
    "prime_or_pow2",
    "prime_1mod3_or_pow3",
    "prime_2mod3_or_pow3",
    "prime_any",
)


def _is_power_of(base: int, x: int) -> bool:
    """True iff x = base^a with a >= 1."""
    if x < base:
        return False
    while x % base == 0:
        x //= base
    return x == 1


@dataclass(frozen=True)
class ModulusClass:
    """A decidable set of admissible target moduli."""

    kind: str
    residue: int | None = None
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in _CLASS_KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == "prime_in_ap" and (self.residue is None or self.modulus is None):
            raise ValueError("prime_in_ap needs residue and modulus")

    def member(self, x: int) -> bool:
        if x < 1:
            raise ValueError(f"membership requires x >= 1, got {x}")
        if self.kind == "prime_in_ap":
            return is_prime(x) and x % self.modulus == self.residue % self.modulus
        if self.kind == "prime_or_pow2":
            return is_prime(x) or _is_power_of(2, x)
        if self.kind == "prime_1mod3_or_pow3":
            return (is_prime(x) and x % 3 == 1) or _is_power_of(3, x)
        if self.kind == "prime_2mod3_or_pow3":
            return (is_prime(x) and x % 3 == 2) or _is_power_of(3, x)
        return is_prime(x)

    def first_at_least(self, bound: int, ceiling: int = DEFAULT_SCAN_CEILING) -> int:
        """Least class member >= bound."""
        bound = max(bound, 2)
        if self.kind == "prime_in_ap":
            return first_prime_in_ap(PrimeQuery(self.residue, self.modulus, bound), ceiling)
        if self.kind == "prime_any":
            return first_prime_in_ap(PrimeQuery(0, 1, bound), ceiling)
        if self.kind == "prime_or_pow2":
            prime = first_prime_in_ap(PrimeQuery(0, 1, bound), ceiling)
            return min(prime, _next_power(2, bound))
        residue = 1 if self.kind == "prime_1mod3_or_pow3" else 2
        prime = first_prime_in_ap(PrimeQuery(residue, 3, bound), ceiling)
        return min(prime, _next_power(3, bound))


def _next_power(base: int, bound: int) -> int:
    p = base
    while p < bound:
        p *= base
    return p


def class_member(mc: ModulusClass, x: int) -> bool:
    return mc.member(x)


# --- the d = 2, 3 sequence cases and their prime-or-prime-power targets ----------


@dataclass(frozen=True)
class SequenceCase:
    """A product sequence outer*k*(slope*k + shift) with its admissible class
    and the linear lower bound bound_slope*n + bound_shift for the target."""

    case_id: str
    outer: int
    slope: int
    shift: int
    threshold: int
    modulus_class: ModulusClass
    bound_slope: int
    bound_shift: int

    @property
    def seq(self) -> HalfQuadratic:
        return HalfQuadratic.from_factors(self.outer, self.slope, self.shift)

    def bound(self, n: int) -> int:
        return self.bound_slope * n + self.bound_shift


THEOREM12_CASES = {
    case.case_id: case
    for case in (
        SequenceCase("2k-1", 4, 2, -1, 5, ModulusClass("prime_or_pow2"), 4, -1),
        SequenceCase("2k+1", 4, 2, 1, 7, ModulusClass("prime_or_pow2"), 4, 0),
        SequenceCase("3k-1", 6, 3, -1, 4, ModulusClass("prime_1mod3_or_pow3"), 3, 0),
        SequenceCase("3k+1", 6, 3, 1, 5, ModulusClass("prime_2mod3_or_pow3"), 3, 0),
        SequenceCase("3k-2", 6, 3, -2, 3, ModulusClass("prime_2mod3_or_pow3"), 3, -1),
        SequenceCase("3k+2", 6, 3, 2, 8, ModulusClass("prime_1mod3_or_pow3"), 3, 0),
    )
}

REMARK12_CASES = {
    case.case_id: case
    for case in (
        # threshold published as 3; n = 4 fails (8, 48, 120, 224 are distinct
        # mod 15 while the prediction is 17), so the certified range starts at 5
        SequenceCase("minus", 8, 2, -1, 5, ModulusClass("prime_any"), 4, -1),
        SequenceCase("plus", 8, 2, 1, 9, ModulusClass("prime_any"), 4, 1),
    )
}


def _verify_case(
    descriptor: str, case: SequenceCase, n: int, ceiling: int, start: int | None
) -> VerificationRecord:
    t0 = time.perf_counter()
    least = least_modulus(case.seq, n, ceiling=ceiling, start=start)
    predicted = case.modulus_class.first_at_least(case.bound(n), ceiling)
    return _record(f"{descriptor}:{case.case_id}", None, None, n, least, predicted, t0)


def verify_theorem12(
    case_id: str, n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> VerificationRecord:
    """Compare the discriminator of one of the six d = 2, 3 sequences with the
    first member of its prime-or-prime-power class above the stated bound;
    certified for n >= the case threshold.  start is the discriminator scan's
    first modulus (see least_modulus)."""
    if case_id not in THEOREM12_CASES:
        raise ValueError(f"unknown case {case_id!r}; expected one of {sorted(THEOREM12_CASES)}")
    return _verify_case("theorem12", THEOREM12_CASES[case_id], n, ceiling, start)


def verify_remark12(
    sign: str, n: int, ceiling: int = DEFAULT_SCAN_CEILING, *, start: int | None = None
) -> VerificationRecord:
    """Same comparison for the two steeper product sequences whose target class
    is plain primes; certified for n >= 5 (minus) / n >= 9 (plus).  The minus
    case also holds at n = 3; n = 4 is its only failure in [3, 1000]
    (discriminator 15, prediction 17).  start is the discriminator scan's first
    modulus (see least_modulus)."""
    if sign not in REMARK12_CASES:
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    return _verify_case("remark12", REMARK12_CASES[sign], n, ceiling, start)


# Certified start of the corollary ranges for the specialized cases (d, c).
COROLLARY11_THRESHOLD = {
    (4, 1): 6,
    (4, -1): 6,
    (5, 1): 8,
    (5, 2): 10,
    (5, -1): 15,
    (5, -2): 5,
}


@lru_cache(maxsize=64)
def _coprime_residues(d: int) -> frozenset[int]:
    """The residues modulo d that are coprime to d."""
    return frozenset(a for a in range(d) if math.gcd(a, d) == 1)


def prime_window_all_residues(d: int, n: int, eps: Fraction | None = None) -> bool:
    """True iff the open interval (2dn/(d-1), ((2+eps)n-2)d/(d-1)) contains a
    prime in every residue class coprime to d.  Endpoints are exact (integer
    floor and ceiling division); both ends are open."""
    if d < 4:
        raise ValueError(f"d must be >= 4, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eps is None:
        eps = window_eps(d)
    # The integers strictly inside the window, with eps = num/den:
    # ((2+eps)n - 2) d / (d-1) = ((2den + num)n - 2den) d / (den (d-1)).
    num, den = eps.numerator, eps.denominator
    first = 2 * d * n // (d - 1) + 1
    last = _ceil_div(((2 * den + num) * n - 2 * den) * d, den * (d - 1)) - 1
    if last < first:
        return False
    wanted = set(_coprime_residues(d))
    for p in primes_in_range(first, last + 1):
        wanted.discard(p % d)
        if not wanted:
            return True
    return False
