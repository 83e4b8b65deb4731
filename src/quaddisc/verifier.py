"""Executable verification of the certified statements about quadratic discriminators.

Each verifier computes the discriminator of a concrete sequence and compares it
with the closed-form prediction (a first prime in an arithmetic progression, or
the first member of a prime-or-prime-power class above an explicit bound).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .discriminator import APCase, HalfQuadratic, least_modulus
from .ntcore import (
    DEFAULT_SCAN_CEILING,
    Outcome,
    Value,
    _check_prime_query,
    first_prime_in_ap,
    is_prime,  # not called here; perfbench traces quaddisc.verifier.is_prime
    primes_in_range,
)


def window_eps(d: int) -> Fraction:
    """Default window width parameter 2 / (max(11, d) - 2)."""
    from fractions import Fraction  # only window checks pay for its import
    return Fraction(2, max(11, d) - 2)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def predicted_prime(
    d: int, c: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING
) -> int:
    """First prime p == c (mod d) with p >= (2dn - c) / (d - 1), exact arithmetic."""
    APCase(d, c)  # validates d, the range of c and coprimality
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bound = max(2, _ceil_div(2 * d * n - c, d - 1))
    return first_prime_in_ap(c, d, bound, ceiling)


def verify_theorem11(d: int, c: int, n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Compare the discriminator of the canonical (d, c) sequence with the
    predicted progression prime; the match is certified for n above
    PREDICTION_THRESHOLD[d] when 4 <= d <= 36."""
    least = least_modulus(APCase(d, c).seq, n, ceiling=ceiling)
    predicted = predicted_prime(d, c, n, ceiling)
    return Outcome(least, predicted, least == predicted)


# --- admissible modulus classes -------------------------------------------------


class ModulusClass(Value, namedtuple("ModulusClass", "residue modulus power_base")):
    """Admissible target moduli: the primes == residue (mod modulus), plus the
    powers power_base^a (a >= 1) when power_base is set."""

    __slots__ = ()

    def __new__(cls, residue: int = 0, modulus: int = 1, power_base: int | None = None):
        _check_prime_query(residue, modulus, 2)  # validates residue and modulus
        if power_base is not None and power_base < 2:
            raise ValueError(f"power_base must be >= 2, got {power_base}")
        return super().__new__(cls, residue, modulus, power_base)

    def first_at_least(self, bound: int, ceiling: int = DEFAULT_SCAN_CEILING) -> int:
        """Least class member >= bound."""
        bound = max(bound, 2)
        prime = first_prime_in_ap(self.residue, self.modulus, bound, ceiling)
        if self.power_base is None:
            return prime
        power = self.power_base
        while power < bound:
            power *= self.power_base
        return min(prime, power)


# --- the d = 2, 3 sequence cases and their prime-or-prime-power targets ----------


class SequenceCase(Value, namedtuple("SequenceCase", "case_id outer slope shift threshold "
                                     "modulus_class bound_slope bound_shift")):
    """A product sequence outer*k*(slope*k + shift) with its admissible class
    and the linear lower bound bound_slope*n + bound_shift for the target."""

    __slots__ = ()

    @property
    def seq(self) -> HalfQuadratic:
        return HalfQuadratic.from_factors(self.outer, self.slope, self.shift)

    def bound(self, n: int) -> int:
        return self.bound_slope * n + self.bound_shift


THEOREM12_CASES = {
    case.case_id: case
    for case in (
        SequenceCase("2k-1", 4, 2, -1, 5, ModulusClass(power_base=2), 4, -1),
        SequenceCase("2k+1", 4, 2, 1, 7, ModulusClass(power_base=2), 4, 0),
        SequenceCase("3k-1", 6, 3, -1, 4, ModulusClass(1, 3, power_base=3), 3, 0),
        SequenceCase("3k+1", 6, 3, 1, 5, ModulusClass(2, 3, power_base=3), 3, 0),
        SequenceCase("3k-2", 6, 3, -2, 3, ModulusClass(2, 3, power_base=3), 3, -1),
        SequenceCase("3k+2", 6, 3, 2, 8, ModulusClass(1, 3, power_base=3), 3, 0),
    )
}

REMARK12_CASES = {
    case.case_id: case
    for case in (
        # threshold published as 3; n = 4 fails (8, 48, 120, 224 are distinct
        # mod 15 while the prediction is 17), so the certified range starts at 5
        SequenceCase("minus", 8, 2, -1, 5, ModulusClass(), 4, -1),
        SequenceCase("plus", 8, 2, 1, 9, ModulusClass(), 4, 1),
    )
}


def _verify_case(case: SequenceCase, n: int, ceiling: int) -> Outcome:
    least = least_modulus(case.seq, n, ceiling=ceiling)
    predicted = case.modulus_class.first_at_least(case.bound(n), ceiling)
    return Outcome(least, predicted, least == predicted)


def verify_theorem12(case_id: str, n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Compare the discriminator of one of the six d = 2, 3 sequences with the
    first member of its prime-or-prime-power class above the stated bound;
    certified for n >= the case threshold."""
    if case_id not in THEOREM12_CASES:
        raise ValueError(f"unknown case {case_id!r}; expected one of {sorted(THEOREM12_CASES)}")
    return _verify_case(THEOREM12_CASES[case_id], n, ceiling)


def verify_remark12(sign: str, n: int, ceiling: int = DEFAULT_SCAN_CEILING) -> Outcome:
    """Same comparison for the two steeper product sequences whose target class
    is plain primes; certified for n >= 5 (minus) / n >= 9 (plus).  The minus
    case also holds at n = 3; n = 4 is its only failure in [3, 1000]
    (discriminator 15, prediction 17)."""
    if sign not in REMARK12_CASES:
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    return _verify_case(REMARK12_CASES[sign], n, ceiling)


# Certified start of the corollary ranges for the specialized cases (d, c).
COROLLARY11_THRESHOLD = {
    (4, 1): 6,
    (4, -1): 6,
    (5, 1): 8,
    (5, 2): 10,
    (5, -1): 15,
    (5, -2): 5,
}


# How many integers the window walk takes at a time: a walk stops within one
# piece of the prime that completes the classes, so a window of millions of
# integers costs a few pieces when its first primes meet every class.  Paired
# in-process runs of campaigns._window on 2 cores chose it: on the bundled d's
# windows (from their thresholds, below d = 31's, at scattered n) 2^9 was up
# to 9% faster and 2^11 up to 9% slower; on d = 2999's wide windows, 2^9 was
# 28% slower and 2^11 14% faster.
_WALK_PIECE = 1 << 10


@lru_cache(maxsize=64)
def _coprime_residues(d: int) -> frozenset[int]:
    """The residues modulo d that are coprime to d."""
    return frozenset(a for a in range(d) if math.gcd(a, d) == 1)


def _window_scan(d: int, first: int, last: int) -> bool:
    """Whether the primes in [first, last] meet every class coprime to d, by
    a walk up from first that takes them _WALK_PIECE integers at a time and
    stops at last or at the piece where the last class is met."""
    wanted = set(_coprime_residues(d))
    while first <= last:
        piece = min(first + _WALK_PIECE, last + 1)
        wanted.difference_update([p % d for p in primes_in_range(first, piece)])
        if not wanted:
            return True
        first = piece
    return False


def _window_terms(d: int, eps: Fraction | None) -> tuple[int, int, int]:
    """(a, b, c) such that the window of n with eps = num/den ends at
    ((2+eps)n - 2) d / (d-1) = (a n - b) / c: a = (2den + num) d, b = 2den d
    and c = den (d-1).  eps None is the default 2 / (max(11, d) - 2), taken
    without building a Fraction.  A caller over many n computes them once:
    an lru_cache keyed on a Fraction would hash it, which costs more."""
    num, den = (2, max(11, d) - 2) if eps is None else (eps.numerator, eps.denominator)
    return (2 * den + num) * d, 2 * den * d, den * (d - 1)


def _window_ends(d: int, n: int, terms: tuple[int, int, int]) -> tuple[int, int]:
    """(first, last): the integers strictly inside the window of n, by exact
    floor and ceiling division, terms being _window_terms(d, eps).  Both
    never decrease as n grows."""
    a, b, c = terms
    return 2 * d * n // (d - 1) + 1, _ceil_div(a * n - b, c) - 1


def prime_window_all_residues(d: int, n: int, eps: Fraction | None = None) -> bool:
    """True iff the open interval (2dn/(d-1), ((2+eps)n-2)d/(d-1)) contains a
    prime in every residue class coprime to d, eps defaulting to window_eps(d):
    the walk (_window_scan) over the integers inside, [first, last]
    (_window_ends)."""
    if d < 4:
        raise ValueError(f"d must be >= 4, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _window_scan(d, *_window_ends(d, n, _window_terms(d, eps)))
