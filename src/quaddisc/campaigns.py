"""Campaign execution: parallel record computation, JSONL emission, resume.

A campaign maps one command over a range of n (or d, for the counterexample
suite), emitting one line-delimited JSON record per work item in strictly
increasing order regardless of parallelism.  Records are append-friendly and
greppable; a resumed campaign skips every key already present in the output
file and reproduces the same summary from the combined records.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from multiprocessing import Pool
from pathlib import Path

from .conjectures import (
    PAIR_THRESHOLD,
    conjecture11_check,
    conjecture12_check,
    conjecture13_check,
    conjecture14_check,
)
from .discriminator import APCase, HalfQuadratic, _check_separable, least_modulus
from .ntcore import DEFAULT_SCAN_CEILING, ScanCeilingError, first_prime_of_form
from .verifier import (
    COROLLARY11_THRESHOLD,
    COUNTEREXAMPLE_RESIDUE,
    PREDICTION_THRESHOLD,
    THEOREM12_CASES,
    REMARK12_CASES,
    WINDOW_THRESHOLD,
    prime_window_all_residues,
    verify_remark11,
    verify_remark12,
    verify_theorem11,
    verify_theorem12,
    window_eps,
)

COMMANDS = (
    "verify-theorem11",
    "verify-remark11",
    "verify-theorem12",
    "verify-remark12",
    "corollary11",
    "window-check",
    "conjecture",
    "discriminator",
)

# Identity fields; together with cmd and n they key a record for resume.
_KEY_FIELDS = ("cmd", "id", "d", "c", "case", "sign", "form", "variant", "eps", "A", "B", "n")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_CEILING = 3
EXIT_IO = 4


@dataclass
class CampaignConfig:
    """One campaign invocation."""

    command: str
    params: dict = field(default_factory=dict)
    n_from: int = 1
    n_to: int = 1
    parallelism: int = 0  # 0 -> available cores
    output: str | None = None  # None -> stdout
    resume: bool = False
    scan_ceiling: int = DEFAULT_SCAN_CEILING
    timing: bool = True


def record_key(rec: dict) -> tuple:
    """Identity of a record, for resume bookkeeping."""
    return tuple((f, rec[f]) for f in _KEY_FIELDS if rec.get(f) is not None)


# json.dumps with any option builds a new encoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def serialize_record(rec: dict) -> str:
    return _ENCODER.encode(rec)


def parse_record(line: str) -> dict:
    rec = json.loads(line)
    if not isinstance(rec, dict) or "cmd" not in rec or "n" not in rec:
        raise ValueError("not a campaign record")
    return rec


def _load_prior(path: Path) -> dict[tuple, dict]:
    """Valid records already present at path, keyed; corrupt lines warned."""
    prior: dict[tuple, dict] = {}
    if not path.exists():
        return prior
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = parse_record(line)
            except (ValueError, KeyError):
                print(f"warning: skipping corrupt record at {path}:{lineno}", file=sys.stderr)
                continue
            prior[record_key(rec)] = rec
    return prior


def _drop_partial_tail(path: Path) -> None:
    """Truncate path after its last newline, so that appended records start on
    a line of their own instead of being glued onto a record cut mid-line."""
    with open(path, "rb+") as fh:
        size = end = fh.seek(0, os.SEEK_END)
        while end > 0:
            block = max(0, end - 4096)
            fh.seek(block)
            newline = fh.read(end - block).rfind(b"\n")
            if newline >= 0:
                end = block + newline + 1
                break
            end = block
        if end < size:
            fh.truncate(end)


def _base_record(cmd: str, identity: dict, n: int, least_m, predicted, match, ms) -> dict:
    rec: dict = {"cmd": cmd}
    for f in _KEY_FIELDS[1:-1]:
        if identity.get(f) is not None:
            rec[f] = identity[f]
    rec["n"] = n
    rec["least_m"] = least_m
    rec["predicted"] = predicted
    rec["match"] = match
    rec["ms"] = ms
    return rec


# --- per-command task functions (top-level for pickling) -------------------------


def _from_verification(cmd: str, identity: dict, vrec) -> dict:
    return _base_record(
        cmd, identity, vrec.n, vrec.least_m, vrec.predicted, vrec.match, vrec.elapsed_ms
    )


# Each task takes the scan's first modulus as its last argument (None: from n).


def _task_theorem11(params: dict, n: int, start: int | None) -> dict:
    d, c = params["d"], params["c"]
    vrec = verify_theorem11(d, c, n, params["ceiling"], start=start)
    return _from_verification("verify-theorem11", {"d": d, "c": c}, vrec)


def _task_corollary11(params: dict, n: int, start: int | None) -> dict:
    d, c = params["d"], params["c"]
    vrec = verify_theorem11(d, c, n, params["ceiling"], start=start)
    return _from_verification("corollary11", {"d": d, "c": c}, vrec)


def _task_remark11(params: dict, d: int, _start: int | None) -> dict:
    # one sequence per d: a least_m of another d bounds nothing here
    vrec = verify_remark11(d, params["ceiling"])
    return _from_verification("verify-remark11", {"d": d, "c": vrec.c}, vrec)


def _task_theorem12(params: dict, n: int, start: int | None) -> dict:
    case = params["case"]
    vrec = verify_theorem12(case, n, params["ceiling"], start=start)
    return _from_verification("verify-theorem12", {"case": case}, vrec)


def _task_remark12(params: dict, n: int, start: int | None) -> dict:
    sign = params["sign"]
    vrec = verify_remark12(sign, n, params["ceiling"], start=start)
    return _from_verification("verify-remark12", {"sign": sign}, vrec)


def _task_window(params: dict, n: int, _start: int | None) -> dict:
    d = params["d"]
    eps = params.get("eps")
    t0 = time.perf_counter()
    ok = prime_window_all_residues(d, n, Fraction(eps) if eps else None)
    ms = int((time.perf_counter() - t0) * 1000)
    return _base_record("window-check", {"d": d, "eps": eps}, n, None, None, ok, ms)


def _task_discriminator(params: dict, n: int, start: int | None) -> dict:
    a, b = params["A"], params["B"]
    t0 = time.perf_counter()
    m = least_modulus(HalfQuadratic(a, b), n, ceiling=params["ceiling"], start=start)
    ms = int((time.perf_counter() - t0) * 1000)
    return _base_record("discriminator", {"A": a, "B": b}, n, m, None, None, ms)


def _task_conjecture(params: dict, n: int, start: int | None) -> dict:
    cid = params["id"]
    ceiling = params["ceiling"]
    if cid == "1.1":
        rep = conjecture11_check(params["d"], n, ceiling, start=start)
        identity = {"id": cid, "d": params["d"]}
    elif cid == "1.2":
        rep = conjecture12_check(n, ceiling, start=start)
        identity = {"id": cid}
    elif cid == "1.3":
        rep = conjecture13_check(params["form"], n, params["variant"], ceiling, start=start)
        identity = {"id": cid, "form": params["form"], "variant": params["variant"]}
    else:
        rep = conjecture14_check(n, ceiling, start=start)
        identity = {"id": cid}
    rec = _base_record(
        "conjecture", identity, n, rep.observed, rep.predicted, rep.agrees, rep.elapsed_ms
    )
    if rep.class_flags is not None:
        rec["flags"] = list(rep.class_flags)
    if rep.certificate is not None:
        rec["certificate"] = rep.certificate
    return rec


_TASKS = {
    "verify-theorem11": _task_theorem11,
    "verify-remark11": _task_remark11,
    "verify-theorem12": _task_theorem12,
    "verify-remark12": _task_remark12,
    "corollary11": _task_corollary11,
    "window-check": _task_window,
    "conjecture": _task_conjecture,
    "discriminator": _task_discriminator,
}


def _dispatch(command: str, params: dict, key: int, start: int | None = None) -> dict:
    try:
        return _TASKS[command](params, key, start)
    except ScanCeilingError as e:
        identity = _identity_for(command, params, key)
        n = identity.pop("n")
        rec = _base_record(command, identity, n, None, None, None, 0)
        rec["error"] = "scan_ceiling"
        rec["detail"] = str(e)
        return rec


# --- expectations: what the certified ranges assert about each record ------------


def expected_match(command: str, params: dict, rec: dict) -> bool | None:
    """The asserted match value for this record, or None outside certified ranges.

    A record whose match differs from a non-None expectation makes the campaign
    exit with EXIT_MISMATCH: either an implementation bug, or a genuine
    counterexample worth publishing.
    """
    n = rec["n"]
    if command == "verify-theorem11":
        d = params["d"]
        if d in PREDICTION_THRESHOLD and n > PREDICTION_THRESHOLD[d]:
            return True
        return None
    if command == "verify-remark11":
        return False
    if command == "verify-theorem12":
        return True if n >= THEOREM12_CASES[params["case"]].threshold else None
    if command == "verify-remark12":
        return True if n >= REMARK12_CASES[params["sign"]].threshold else None
    if command == "corollary11":
        thr = COROLLARY11_THRESHOLD.get((params["d"], params["c"]))
        return True if thr is not None and n >= thr else None
    if command == "window-check":
        # The threshold certifies the default window; a wider one (larger eps)
        # holds wherever it does, a narrower one is uncertified.
        d, eps = params["d"], params.get("eps")
        thr = WINDOW_THRESHOLD.get(d)
        if thr is None or n < thr or (eps is not None and Fraction(eps) < window_eps(d)):
            return None
        return True
    if command == "conjecture":
        return _expected_conjecture(params, n)
    return None


def _expected_conjecture(params: dict, n: int) -> bool | None:
    cid = params["id"]
    if cid == "1.1":
        thr = PAIR_THRESHOLD.get(params["d"])
        return True if thr is not None and n >= thr else None
    if cid == "1.2" or cid == "1.4":
        return True
    # 1.3: the literal prediction bound 2n-1 provably fails for the squares
    # variant whenever the first form prime >= 2n-1 is exactly 2n-1 (that prime
    # divides a difference of two squares with k+l = p), and at the degenerate
    # n = 1 where the form value 1 is an admissible modulus.
    if n == 1:
        return False
    if params["variant"] == "squares" and n >= 2:
        if first_prime_of_form(params["form"], 2 * n - 1) == 2 * n - 1:
            return False
    return True


# --- the campaign runner ----------------------------------------------------------


def _work_items(config: CampaignConfig) -> list[int]:
    if config.command == "verify-remark11":
        if config.params.get("all"):
            return sorted(PREDICTION_THRESHOLD)
        d = config.params["d"]
        if d not in PREDICTION_THRESHOLD:
            raise ValueError(f"d must be in [4, 36], got {d}")
        return [d]
    if config.n_from > config.n_to:
        raise ValueError(f"n_from {config.n_from} exceeds n_to {config.n_to}")
    return list(range(config.n_from, config.n_to + 1))


def _validate(config: CampaignConfig) -> None:
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.parallelism < 0:
        raise ValueError("parallelism must be >= 1 (or 0 for all cores)")
    if config.resume and config.output is None:
        raise ValueError("--resume requires an output file")
    if config.scan_ceiling < 2:
        raise ValueError("scan ceiling must be >= 2")
    if config.scan_ceiling >= 2**64:
        raise ValueError("scan ceiling must be below 2^64, where primality testing is exact")
    p = config.params
    cmd = config.command
    if cmd in ("verify-theorem11", "corollary11"):
        APCase(p["d"], p["c"])  # validates coprimality and range
    elif cmd == "verify-theorem12" and p["case"] not in THEOREM12_CASES:
        raise ValueError(f"unknown case {p['case']!r}")
    elif cmd == "verify-remark12" and p["sign"] not in REMARK12_CASES:
        raise ValueError(f"sign must be 'minus' or 'plus', got {p['sign']!r}")
    elif cmd == "window-check":
        if p["d"] < 4:
            raise ValueError(f"window check requires d >= 4, got {p['d']}")
        if p.get("eps") is not None:
            try:
                eps = Fraction(p["eps"])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"--eps must be a fraction such as 2/9, got {p['eps']!r}") from None
            if eps <= 0:
                raise ValueError(f"--eps must be positive, got {p['eps']!r}")
    elif cmd == "discriminator":
        # parity, then two terms that coincide exactly, which no modulus separates
        _check_separable(HalfQuadratic(p["A"], p["B"]), config.n_to)
    elif cmd == "conjecture":
        cid = p["id"]
        if cid not in ("1.1", "1.2", "1.3", "1.4"):
            raise ValueError(f"unknown conjecture id {cid!r}")
        if cid == "1.1" and p.get("d", 0) < 1:
            raise ValueError("conjecture 1.1 needs --d >= 1")
        if cid == "1.3":
            if p.get("form") not in ("x^2+x+1", "4x^2+1"):
                raise ValueError("conjecture 1.3 needs --form x^2+x+1 or 4x^2+1")
            if p.get("variant") not in ("choose2", "squares"):
                raise ValueError("conjecture 1.3 needs --variant choose2 or squares")
        if cid == "1.4" and config.n_from <= 2:
            raise ValueError("conjecture 1.4 needs n > 2")


def _identity_for(command: str, params: dict, w: int) -> dict:
    """Identity fields of the record a work item will produce."""
    identity: dict = {"n": w}
    if command in ("verify-theorem11", "corollary11"):
        identity.update(d=params["d"], c=params["c"])
    elif command == "verify-remark11":
        identity.update(d=w, c=COUNTEREXAMPLE_RESIDUE[w], n=PREDICTION_THRESHOLD[w])
    elif command == "verify-theorem12":
        identity["case"] = params["case"]
    elif command == "verify-remark12":
        identity["sign"] = params["sign"]
    elif command == "window-check":
        identity.update(d=params["d"], eps=params.get("eps"))
    elif command == "discriminator":
        identity.update(A=params["A"], B=params["B"])
    elif command == "conjecture":
        identity["id"] = params["id"]
        if params["id"] == "1.1":
            identity["d"] = params["d"]
        elif params["id"] == "1.3":
            identity.update(form=params["form"], variant=params["variant"])
    return identity


def _key_for(command: str, params: dict, w: int) -> tuple:
    """Key a work item exactly the way its record will be keyed."""
    return record_key({"cmd": command, **_identity_for(command, params, w)})


def _sweep(command: str, params: dict, items: list[int]):
    """Records for an ascending slice of work items, in order.

    D(n') <= D(n) for n' < n: terms pairwise distinct modulo m stay distinct
    when fewer of them are taken.  So each scan starts at the larger of n and
    the last least_m this slice computed, which holds across gaps in the
    slice.  A record without least_m (a ceiling error) leaves the hint as it
    was.  Hints come only from values computed here, never from records read
    back from a file: a corrupt least_m that is too high would skip the answer.
    """
    hint = None
    for w in items:
        rec = _dispatch(command, params, w, None if hint is None else max(hint, w))
        if rec["least_m"] is not None:
            hint = rec["least_m"]
        yield rec


def _sweep_list(command: str, params: dict, items: list[int]) -> list[dict]:
    return list(_sweep(command, params, items))


def _compute(command: str, params: dict, pending: list[int], parallelism: int):
    """Records for pending, in order: one sweep serially, or contiguous slices
    swept by a pool of workers."""
    if parallelism <= 1 or len(pending) <= 1:
        yield from _sweep(command, params, pending)
        return
    size = max(1, len(pending) // (parallelism * 8))
    slices = [pending[i:i + size] for i in range(0, len(pending), size)]
    with Pool(parallelism) as pool:
        for records in pool.imap(partial(_sweep_list, command, params), slices):
            yield from records


def _available_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: CampaignConfig) -> int:
    """Execute a campaign; stream records in work order; return the exit status."""
    try:
        _validate(config)
        work = _work_items(config)
    except (ValueError, KeyError) as e:
        print(f"error: invalid campaign: {e}", file=sys.stderr)
        return EXIT_INVALID

    params = dict(config.params, ceiling=config.scan_ceiling)
    parallelism = config.parallelism or _available_cores()

    t0 = time.perf_counter()
    prior: dict[tuple, dict] = {}
    try:
        if config.resume and Path(config.output).exists():
            prior = _load_prior(Path(config.output))  # warns on a record cut mid-line
            _drop_partial_tail(Path(config.output))
        out = open(config.output, "a" if config.resume else "w", encoding="utf-8") \
            if config.output else sys.stdout
    except OSError as e:
        print(f"error: cannot open output: {e}", file=sys.stderr)
        return EXIT_IO

    # prior records by work item; keyed only when resuming
    done = {w: prior[k] for w in work if (k := _key_for(config.command, params, w)) in prior} \
        if prior else {}

    records: list[dict] = []
    try:
        results = _compute(config.command, params, [w for w in work if w not in done], parallelism)
        for w in work:
            rec = done.get(w)
            if rec is None:
                rec = next(results)
                if not config.timing:
                    rec["ms"] = 0
                out.write(serialize_record(rec) + "\n")
                out.flush()
            records.append(rec)
    except OSError as e:
        print(f"error: write failed: {e}", file=sys.stderr)
        return EXIT_IO
    finally:
        if config.output:
            out.close()

    wall_ms = 0 if not config.timing else int((time.perf_counter() - t0) * 1000)
    return _finish(config, params, records, wall_ms)


def _finish(config, params, records, wall_ms) -> int:
    matches = sum(1 for r in records if r.get("match") is True)
    mismatches = sum(1 for r in records if r.get("match") is False)
    ceilings = sum(1 for r in records if r.get("error") == "scan_ceiling")
    unexpected = 0
    for r in records:
        if r.get("error"):
            continue
        exp = expected_match(config.command, params, r)
        if exp is not None and r.get("match") != exp:
            unexpected += 1
    print(
        f"# summary cmd={config.command} records={len(records)} match={matches} "
        f"mismatch={mismatches} unexpected={unexpected} ceiling={ceilings} ms={wall_ms}",
        file=sys.stderr,
    )
    if ceilings:
        return EXIT_CEILING
    if unexpected:
        return EXIT_MISMATCH
    return EXIT_OK
