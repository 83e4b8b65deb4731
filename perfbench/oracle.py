"""Independent spot checks of campaign records: pure Python and sympy only.

Nothing here calls quaddisc.  Each checker restates the claim a record makes
from the paper's definitions and returns whether the record is right, so a bug
shared by the program and its golden streams still shows.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from sympy import isprime, nextprime, prime, sieve

# Theorem 1.2 for d = 3: f(k) = 6k(3k + shift); the target is the least prime
# p == residue (mod 3) or power of 3 that is >= 3n + bound_shift.
THEOREM12 = {"3k-1": (-1, 1, 0), "3k+1": (1, 2, 0), "3k-2": (-2, 2, -1), "3k+2": (2, 1, 0)}

SAMPLE = {"verify-theorem12": 6, "1.2": 6, "window-check": 100, "1.4": 6}


def _collides(values: list[int], m: int) -> bool:
    seen = set()
    for v in values:
        r = v % m
        if r in seen:
            return True
        seen.add(r)
    return False


def _least(values: list[int], n: int, m: int, gap: int | None = None) -> bool:
    """m separates the values (and so does m + gap), and no m' in [n, m) does.

    Moduli below n collide by pigeonhole, so the scan starts at n.
    """
    def separates(x: int) -> bool:
        return not _collides(values, x) and (gap is None or not _collides(values, x + gap))

    return m >= n and separates(m) and not any(separates(x) for x in range(n, m))


def _theorem12(rec: dict) -> bool:
    shift, residue, bound_shift = THEOREM12[rec["case"]]
    n, least = rec["n"], rec["least_m"]
    bound = max(2, 3 * n + bound_shift)
    p = bound
    while not (p % 3 == residue and isprime(p)):
        p += 1
    power = 3
    while power < bound:
        power *= 3
    predicted = min(p, power)
    values = [6 * k * (3 * k + shift) for k in range(1, n + 1)]
    return (
        _least(values, n, least)
        and rec["predicted"] == predicted
        and rec["match"] == (least == predicted)
    )


def _two_power_times_prime(m: int) -> bool:
    while m % 2 == 0:
        m //= 2
    return m == 1 or isprime(m)


def _conj12(rec: dict) -> bool:
    n, m = rec["n"], rec["least_m"]
    values = [k * (k - 1) // 2 for k in range(1, n + 1)]
    flags = [_two_power_times_prime(m), _two_power_times_prime(m + 1)]
    return _least(values, n, m, gap=1) and rec["flags"] == flags and rec["match"] == all(flags)


def _window(rec: dict) -> bool:
    d, n = rec["d"], rec["n"]
    eps = Fraction(2, max(11, d) - 2)
    lo = Fraction(2 * d * n, d - 1)
    hi = ((2 + eps) * n - 2) * d / (d - 1)
    residues = {p % d for p in sieve.primerange(math.floor(lo) + 1, math.ceil(hi))}
    wanted = {a for a in range(d) if math.gcd(a, d) == 1}
    return rec["least_m"] is None and rec["match"] == (wanted <= residues)


def _conj14(rec: dict) -> bool:
    n, least = rec["n"], rec["least_m"]
    primes = list(sieve.primerange(2, prime(n) + 1))
    values = [6 * p * (p - 1) for p in primes]
    sums = [primes[i] + primes[j] - 1 for i in range(n) for j in range(i + 1, n)]
    q = primes[-1]
    while any(s % q == 0 for s in sums):
        q = nextprime(q)
    return _least(values, n, least) and rec["predicted"] == q and rec["match"] == (least == q)


_CHECKS = {"verify-theorem12": _theorem12, "window-check": _window, "1.2": _conj12, "1.4": _conj14}


def _kind(rec: dict) -> str | None:
    return rec.get("id") if rec.get("cmd") == "conjecture" else rec.get("cmd")


# Verdicts by record content without its timing.  A run repeats the same
# campaigns, so its samples meet the same records again; the checks are pure
# functions of the record, so a repeat gets the verdict already found.
_verdicts: dict[str, bool] = {}


def _right(rec: dict) -> bool:
    key = json.dumps({k: v for k, v in rec.items() if k != "ms"}, sort_keys=True)
    if key not in _verdicts:
        try:
            _verdicts[key] = _CHECKS[_kind(rec)](rec)
        except (KeyError, TypeError, ValueError):  # a field missing or of the wrong type
            _verdicts[key] = False
    return _verdicts[key]


def spot_check(records: list[dict], seed: int) -> tuple[int, list[dict]]:
    """Check a seeded sample of one campaign's records, plus every record whose
    match is False, the honest reds included.  Returns (checked, wrong).

    Records the golden check already fails (with `error`, or of no known
    kind) are left to it.
    """
    records = [r for r in records if "error" not in r and _kind(r) in _CHECKS]
    if not records:
        return 0, []
    kind = _kind(records[0])
    rng = random.Random(f"oracle:{seed}:{kind}")
    sample = rng.sample(records, min(SAMPLE[kind], len(records)))
    sample += [r for r in records if r.get("match") is False and r not in sample]
    return len(sample), [r for r in sample if not _right(r)]
