"""Campaign commands: what each command is, from its CLI options to the
outcome it asserts, and what identifies a record.

COMMANDS holds one Command per campaign command.  record_key, parse_record,
_identity and _head define a record's identity and its text up to n;
runner.run executes a campaign from these.  Every call into the verifier and
the conjectures, and every serialize_record and parse_record of a campaign,
is made here, where perfbench's tracing wraps those names.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import partial

from .conjectures import (
    PAIR_THRESHOLD,
    VARIANTS,
    conjecture11_check,
    conjecture12_check,
    conjecture13_check,
    conjecture14_check,
)
from .discriminator import APCase, HalfQuadratic, _check_separable, least_modulus
from .ntcore import (DEFAULT_SCAN_CEILING, POLYNOMIAL_FORMS, Outcome, ScanCeilingError, Value,
                     _MR_LIMIT, first_prime_of_form)
from .tables import COUNTEREXAMPLE_RESIDUE, PREDICTION_THRESHOLD, WINDOW_THRESHOLD, serialize_record
from .verifier import (
    COROLLARY11_THRESHOLD,
    THEOREM12_CASES,
    REMARK12_CASES,
    _window_ends,
    _window_scan,
    _window_terms,
    prime_window_all_residues,
    verify_remark12,
    verify_theorem11,
    verify_theorem12,
    window_eps,
)

# Identity fields; together with cmd and n they key a record for resume.
_KEY_FIELDS = ("cmd", "id", "d", "c", "case", "sign", "form", "variant", "eps", "A", "B", "n")


class CampaignConfig(Value, namedtuple("CampaignConfig", "command params n_from n_to parallelism "
                                       "output resume scan_ceiling timing")):
    """One campaign invocation.  params defaults to a new empty dict,
    parallelism 0 to the available cores and output None to stdout."""

    __slots__ = ()

    def __new__(cls, command: str, params: dict | None = None, n_from: int = 1,
                n_to: int = 1, parallelism: int = 0, output: str | None = None,
                resume: bool = False, scan_ceiling: int = DEFAULT_SCAN_CEILING,
                timing: bool = True):
        return super().__new__(cls, command, {} if params is None else params, n_from, n_to,
                               parallelism, output, resume, scan_ceiling, timing)


def record_key(rec: dict) -> tuple:
    """Identity of a record, for resume bookkeeping."""
    return tuple((f, rec[f]) for f in _KEY_FIELDS if rec.get(f) is not None)


def parse_record(line: str) -> dict:
    rec = json.loads(line)
    if not isinstance(rec, dict) or "cmd" not in rec or "n" not in rec:
        raise ValueError("not a campaign record")
    return rec


# --- the commands: one spec each, from CLI options to expectation ---------------


class Command(Value, namedtuple("Command", "options check compute certified one_of segments",
                                defaults=(False, None))):
    """One campaign command.  options are (flag, argparse kwargs) pairs whose
    dest is a params key.  check(config) raises ValueError for an invalid
    config, else returns the params that, with the scan ceiling, identify the
    campaign; those in _KEY_FIELDS key its records.  segments(config, params)
    returns its work as (params, range of n) pairs, in output order; None is
    range(n_from, n_to + 1), which the CLI reads from --n-from/--n-to.
    compute(params, ns) returns the records of ascending ns as runs (ns,
    least_m, predicted, match, extra, ms), in order: each run's n share the
    fields of one Outcome, which a check of one n returns (extra, the record's
    extra fields, is a dict or None), and ms, the whole ms each took.
    certified(params) is (start, value): records with n >= start are asserted
    to have match == value, or value(n) for conjecture 1.3's rule, and a start
    of None asserts nothing.  Both get a segment's params.
    one_of marks options that exclude each other, one required."""

    __slots__ = ()


def _each_n(compute: Callable[[dict, int], Outcome], p: dict, ns: Sequence[int]) -> list:
    """One run per n from compute(p, n), the Outcome of one n: ms times that
    call, and a scan past the ceiling makes an error record."""
    runs, clock = [], time.perf_counter
    for n in ns:
        t0 = clock()
        try:
            least_m, predicted, match, extra = compute(p, n)
        except ScanCeilingError as e:
            runs.append(([n], None, None, None, {"error": "scan_ceiling", "detail": str(e)}, 0))
        else:
            runs.append(([n], least_m, predicted, match, extra, int((clock() - t0) * 1000)))
    return runs


def _check_apcase(config: CampaignConfig) -> dict:
    p = config.params
    APCase(p["d"], p["c"])  # validates coprimality and range
    # the primes below 2^16, sieve block 0, factor every d below 2^32 at once;
    # radical(d) of a larger d trial-divides by odd numbers up to sqrt(d)
    if p["d"] >= 1 << 32:
        raise ValueError(f"d must be below 2^32, which the primes below 2^16 factor, "
                         f"got {p['d']}")
    return {"d": p["d"], "c": p["c"]}


def _check_corollary(config: CampaignConfig) -> dict:
    params = _check_apcase(config)
    if (params["d"], params["c"]) not in COROLLARY11_THRESHOLD:
        raise ValueError(f"corollary11 certifies (d, r) in {sorted(COROLLARY11_THRESHOLD)}, "
                         f"got ({params['d']}, {params['c']}); verify-theorem11 runs any class")
    return params


def _theorem11(p: dict, n: int) -> Outcome:
    return verify_theorem11(p["d"], p["c"], n, p["ceiling"])


def _remark11_rows(config: CampaignConfig, params: dict) -> list[tuple[dict, range]]:
    """One segment per bundled row: its d and c, and its threshold as the one n."""
    p = config.params
    if not p.get("all") and p["d"] not in PREDICTION_THRESHOLD:
        raise ValueError(f"d must be in [4, 36], got {p['d']}")
    ds = sorted(PREDICTION_THRESHOLD) if p.get("all") else [p["d"]]
    return [(dict(params, d=d, c=COUNTEREXAMPLE_RESIDUE[d]),
             range(PREDICTION_THRESHOLD[d], PREDICTION_THRESHOLD[d] + 1)) for d in ds]


def _check_member(config: CampaignConfig, key: str, table: dict, message: str) -> dict:
    value = config.params[key]
    if value not in table:
        raise ValueError(message.format(value))
    return {key: value}


def _check_window(config: CampaignConfig) -> dict:
    d, eps = config.params["d"], config.params.get("eps")
    if d < 4:
        raise ValueError(f"window check requires d >= 4, got {d}")
    if d >= 1 << 20:  # the walk holds a set of all phi(d) classes, about 45 MB per 10^6 of d
        raise ValueError(f"window check requires d < 2^20, got {d}")
    value = None
    if eps is not None:
        from fractions import Fraction  # only --eps pays for its import
        try:
            value = Fraction(eps)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--eps must be a fraction such as 2/9, got {eps!r}") from None
        if value <= 0:
            raise ValueError(f"--eps must be positive, got {eps!r}")
        eps = str(value)  # one key per window: 2/6 and 0.5 write and resume as 1/3 and 1/2
    return {"d": d, "eps": eps, "eps_fraction": value}


def _window_n(p: dict, n: int) -> Outcome:
    d, eps = p["d"], p.get("eps_fraction")
    last = _window_ends(d, n, _window_terms(d, eps))[1]
    if last > p["ceiling"]:
        raise ScanCeilingError(f"window of n = {n} up to {last}", p["ceiling"])
    return Outcome(None, None, prime_window_all_residues(d, n, eps))


def _window(p: dict, ns: Sequence[int]) -> list:
    """The window outcomes of ascending ns as runs.  first(n) and last(n), the
    ends of n's window (verifier._window_ends), never decrease as n grows, so
    every window of a run n_lo..n_hi contains [first(n_hi), last(n_lo)] and
    lies inside [first(n_lo), last(n_hi)].  A walk (verifier._window_scan)
    that meets every class in the first interval passes the whole run, one
    that misses a class in the second fails it, and each record of the run
    carries the walks' time over its count.  Where neither decides, or
    last(n_hi) passes the scan ceiling (checked first, so no block past it is
    sieved), the n split in halves, down to one n, which _window_n decides as
    every command decides one n."""
    d, terms = p["d"], _window_terms(p["d"], p.get("eps_fraction"))
    clock, runs = time.perf_counter, []

    def decide(lo: int, hi: int) -> None:
        if hi - lo == 1:
            runs.extend(_each_n(_window_n, p, ns[lo:hi]))
            return
        t0 = clock()
        outer_first, inner_last = _window_ends(d, ns[lo], terms)
        inner_first, outer_last = _window_ends(d, ns[hi - 1], terms)
        match = None
        if outer_last <= p["ceiling"]:
            if _window_scan(d, inner_first, inner_last):
                match = True
            elif not _window_scan(d, outer_first, outer_last):
                match = False
        if match is None:
            mid = (lo + hi) // 2
            decide(lo, mid)
            decide(mid, hi)
        else:
            runs.append((ns[lo:hi], None, None, match, None, int((clock() - t0) * 1000 / (hi - lo))))

    decide(0, len(ns))
    return runs


def _window_threshold(d: int, eps: Fraction | None) -> int | None:
    """The n from which the window of d and the parsed --eps is certified.
    The threshold certifies the default window; a wider one (larger eps) holds
    wherever it does, a narrower one is uncertified."""
    if eps is not None and eps < window_eps(d):
        return None
    return WINDOW_THRESHOLD.get(d)


_CONJECTURES = {
    "1.1": lambda p, n: conjecture11_check(p["d"], n, p["ceiling"]),
    "1.2": lambda p, n: conjecture12_check(n, p["ceiling"]),
    "1.3": lambda p, n: conjecture13_check(p["form"], n, p["variant"], p["ceiling"]),
    "1.4": lambda p, n: conjecture14_check(n, p["ceiling"]),
}


def _check_conjecture(config: CampaignConfig) -> dict:
    p = config.params
    cid = p["id"]
    if cid not in _CONJECTURES:
        raise ValueError(f"unknown conjecture id {cid!r}")
    if cid == "1.1":
        if (p.get("d") or 0) < 1:
            raise ValueError("conjecture 1.1 needs --d >= 1")
        if 2 * p["d"] + config.scan_ceiling >= _MR_LIMIT:
            raise ValueError("conjecture 1.1 tests p + 2d for primality, which is exact only "
                             "below 2^64: 2d + scan ceiling must be below 2^64")
        return {"id": cid, "d": p["d"]}
    if cid == "1.3":
        if p.get("form") not in POLYNOMIAL_FORMS:
            raise ValueError("conjecture 1.3 needs --form x^2+x+1 or 4x^2+1")
        if p.get("variant") not in VARIANTS:
            raise ValueError("conjecture 1.3 needs --variant choose2 or squares")
        return {"id": cid, "form": p["form"], "variant": p["variant"]}
    if cid == "1.4" and config.n_from <= 2:
        raise ValueError("conjecture 1.4 needs n > 2")
    return {"id": cid}


def _certified_conjecture(p: dict) -> tuple:
    if p["id"] == "1.1":
        return PAIR_THRESHOLD.get(p["d"]), True
    return 1, partial(_expect13, p) if p["id"] == "1.3" else True


def _expect13(p: dict, n: int) -> bool:
    # 1.3: the literal prediction bound 2n-1 provably fails for the squares
    # variant whenever the first form prime >= 2n-1 is exactly 2n-1 (that prime
    # divides a difference of two squares with k+l = p), and at the degenerate
    # n = 1 where the form value 1 is an admissible modulus.
    if n == 1:
        return False
    return not (p["variant"] == "squares"
                and first_prime_of_form(p["form"], 2 * n - 1) == 2 * n - 1)


def _check_discriminator(config: CampaignConfig) -> dict:
    a, b = config.params["A"], config.params["B"]
    # parity, then two terms that coincide exactly, which no modulus separates
    _check_separable(HalfQuadratic(a, b), config.n_to)
    return {"A": a, "B": b}


def _discriminator(p: dict, n: int) -> Outcome:
    m = least_modulus(HalfQuadratic(p["A"], p["B"]), n, ceiling=p["ceiling"])
    return Outcome(m, None, None)


_INT = {"type": int, "required": True}

# The names and order of cli.HELPS, which holds each command's help: the CLI
# lists the commands without importing this module.
COMMANDS = {
    "verify-theorem11": Command(
        options=(("--d", _INT), ("--c", _INT)),
        check=_check_apcase,
        compute=partial(_each_n, _theorem11),
        certified=lambda p: (
            PREDICTION_THRESHOLD[p["d"]] + 1 if p["d"] in PREDICTION_THRESHOLD else None, True
        ),
    ),
    "verify-remark11": Command(
        options=(("--all", {"action": "store_true", "help": "all d = 4..36"}),
                 ("--d", {"type": int})),
        check=lambda config: {},
        compute=partial(_each_n, _theorem11),
        certified=lambda p: (1, False),
        one_of=True,
        segments=_remark11_rows,
    ),
    "verify-theorem12": Command(
        options=(("--case", {"required": True, "choices": tuple(THEOREM12_CASES)}),),
        check=lambda config: _check_member(config, "case", THEOREM12_CASES, "unknown case {!r}"),
        compute=partial(_each_n, lambda p, n: verify_theorem12(p["case"], n, p["ceiling"])),
        certified=lambda p: (THEOREM12_CASES[p["case"]].threshold, True),
    ),
    "verify-remark12": Command(
        options=(("--sign", {"required": True, "choices": tuple(REMARK12_CASES)}),),
        check=lambda config: _check_member(
            config, "sign", REMARK12_CASES, "sign must be 'minus' or 'plus', got {!r}"
        ),
        compute=partial(_each_n, lambda p, n: verify_remark12(p["sign"], n, p["ceiling"])),
        certified=lambda p: (REMARK12_CASES[p["sign"]].threshold, True),
    ),
    "corollary11": Command(
        options=(("--d", dict(_INT, choices=[4, 5])),
                 ("--r", dict(_INT, dest="c", metavar="R", help="residue class (maps to c)"))),
        check=_check_corollary,
        compute=partial(_each_n, _theorem11),
        certified=lambda p: (COROLLARY11_THRESHOLD[p["d"], p["c"]], True),
    ),
    "window-check": Command(
        options=(("--d", _INT), ("--eps", {"help": "override window parameter, e.g. 2/9"})),
        check=_check_window,
        compute=_window,
        certified=lambda p: (_window_threshold(p["d"], p.get("eps_fraction")), True),
    ),
    "conjecture": Command(
        options=(("--id", {"required": True, "choices": tuple(_CONJECTURES)}),
                 ("--d", {"type": int, "help": "gap parameter for 1.1"}),
                 ("--form", {"choices": tuple(POLYNOMIAL_FORMS), "help": "for 1.3"}),
                 ("--variant", {"choices": VARIANTS, "default": "choose2",
                                "help": "sequence variant for 1.3"})),
        check=_check_conjecture,
        compute=partial(_each_n, lambda p, n: _CONJECTURES[p["id"]](p, n)),
        certified=_certified_conjecture,
    ),
    "discriminator": Command(
        options=(("--A", _INT), ("--B", _INT)),
        check=_check_discriminator,
        compute=partial(_each_n, _discriminator),
        certified=lambda p: (None, None),
    ),
}


def _identity(command: str, params: dict, n: int) -> dict:
    """The identity fields, in key order, of the record of n in a segment with
    these params: cmd, the key fields of params, then n, even when n is None."""
    return dict(record_key(dict(params, cmd=command)), n=n)


def _head(command: str, params: dict) -> str:
    """The text of every record of a segment with these params up to n's
    value, such as '{"cmd":"window-check","d":20,"n":': _chunk writes records
    from it and --resume reads them back through it."""
    return serialize_record(_identity(command, params, 0))[:-2]


def expected_match(command: str, params: dict, rec: dict) -> bool | None:
    """The asserted match value for this record, or None outside certified ranges."""
    start, value = COMMANDS[command].certified(params)
    if start is None or rec["n"] < start:
        return None
    return value(rec["n"]) if callable(value) else value
