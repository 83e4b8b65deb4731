"""Mutation gate: each listed one-edit defect must make the unit suite fail.

A mutant names a file of src/quaddisc, a text that occurs in it exactly once,
and the text that replaces it.  For each mutant, one at a time, the script
copies the tree to a temporary directory, applies the edit there and runs

    python -m pytest -x -q -m "not acceptance"

on the copy, with a timeout; a run that times out counts as killed.  A
mutant the suite passes has survived: the script prints it and exits 1.  The
mend is a new test, never a dropped mutant.  The equivalent edits, listed
apart with the reason each changes no result, are only checked to apply, so
that nobody writes a test for them.  The script exits 2 before judging any
mutant when an entry's text no longer occurs exactly once or its edit does
not compile (a change that removes the text updates its entry), or when the
suite fails on an unmutated copy, where every mutant would read as killed.
Uses the stdlib only.

    python scripts/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not acceptance"]
TIMEOUT_S = 300

# (module, old text, new text, the defect)
MUTANTS = [
    ("runner.py", "first = bisect_left(ns, start)", "first = bisect_left(ns, start + 1)",
     "_tally counts asserted n from start + 1"),
    ("runner.py", "mismatch += k * (match is False)", "mismatch += k * (match is not True)",
     "_tally counts a record without a match as a mismatch"),
    ("verifier.py", "while power < bound:", "while power <= bound:",
     "ModulusClass.first_at_least skips a power equal to the bound"),
    ("verifier.py", "if x < base:", "if x <= base:",
     "_is_power_of refuses base^1"),
    ("verifier.py", "_ceil_div(a * n - b, c) - 1", "_ceil_div(a * n - b, c)",
     "_window_ends takes the window's right end into it"),
    ("discriminator.py", "new += [g * pk for g in divs if g * pk <= limit]",
     "new += [g * pk for g in divs if g * pk < limit]",
     "_divisors_upto drops divisors equal to the limit"),
    ("discriminator.py", "return lo + (s - lo) % step <= 2 * n - g",
     "return lo + (s - lo) % step < 2 * n - g",
     "_class_collides misses a collision at the last admissible s"),
    ("discriminator.py", "lower = max(n, hint[1]) if", "lower = max(n, hint[1] + 1) if",
     "_scan starts past the hint's modulus"),
    ("campaigns.py", "elif not _window_scan(d, outer_first, outer_last):",
     "elif not _window_scan(d, inner_first, outer_last):",
     "_window decides False on [inner_first, outer_last]"),
    ("campaigns.py", 'if cid == "1.4" and config.n_from <= 2:',
     'if cid == "1.4" and config.n_from < 2:',
     "conjecture 1.4 accepts n = 2"),
    ("campaigns.py", "    if n == 1:\n        return False", "    if n == 1:\n        return True",
     "_expect13 asserts agreement at the degenerate n = 1"),
    ("prior.py", '- len(line.encode("utf-8", "surrogateescape")))', "- len(line))",
     "a cut tail is truncated by characters, not bytes"),
    ("prior.py", "(0 if not error else 1 if error", "(0 if not error else 2 if error",
     "_code files a scan-ceiling error as another error"),
    ("ntcore.py", "for _ in range(s - 1):", "for _ in range(s - 2):",
     "is_prime squares one time too few"),
    ("ntcore.py", "if n < _MR_SMALL_LIMIT", "if n <= _MR_SMALL_LIMIT",
     "is_prime tests 4,759,123,141, a strong pseudoprime to 2, 7 and 61, with those three"),
    ("ntcore.py", "if 1 < x <= limit:", "if 1 < x < limit:",
     "_prime_factors drops a prime cofactor equal to the limit"),
    ("conjectures.py", "_first_collision(v % m for v in values) is None",
     "_first_collision(v % m for v in values[:-1]) is None",
     "conjecture 1.4's observed scan ignores the last value"),
    ("conjectures.py", "lambda p: 2 * p > t", "lambda p: 2 * p >= t",
     "_is_pair_sum counts p + p as a pair sum"),
    ("conjectures.py", "q = max(lower, primes[-1]) - 1", "q = max(lower, primes[-1])",
     "conjecture 1.4's prediction skips p_n"),
    ("conjectures.py", "first_prime_with_prime_gap(2 * n - 1, gap, ceiling)",
     "first_prime_with_prime_gap(2 * n, gap, ceiling)",
     "conjecture 1.1's prediction starts at 2n"),
]

# (module, old text, new text, why the edit changes no result)
EQUIVALENT = [
    ("verifier.py", "return 2 * d * n // (d - 1) + 1,", "return _ceil_div(2 * d * n, d - 1),",
     "the window's left end: the two differ only when 2dn/(d - 1) is an integer, and that "
     "integer is a multiple of d, so it lies in no coprime class"),
    ("verifier.py", "_ceil_div(2 * d * n - c, d - 1)", "(2 * d * n - c) // (d - 1)",
     "predicted_prime's bound: the two differ only when the division leaves a remainder r in "
     "[1, d - 2], and the floor is then c + r (mod d), never c"),
]


def _stop(message: str) -> None:
    """Print message to stderr and exit 2: the gate cannot judge any mutant."""
    print(message, file=sys.stderr)
    sys.exit(2)


def _mutated(module: str, old: str, new: str) -> str:
    """The text of src/quaddisc/module with old replaced by new; exits 2
    unless old occurs exactly once and the result compiles."""
    path = ROOT / "src" / "quaddisc" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        _stop(f"{module}: {old!r} occurs {text.count(old)} times, not once; update the entry")
    text = text.replace(old, new)
    try:
        compile(text, str(path), "exec")
    except SyntaxError as e:
        _stop(f"{module}: the edit of {old!r} does not compile: {e}")
    return text


def _suite(edit: tuple[str, str] | None) -> tuple[int | None, str, float]:
    """(return code, or None on timeout, the first failing test, seconds) of
    the unit suite on a copy of the tree with edit, (module, text), applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".perfbench"))
        if edit is not None:
            (tree / "src" / "quaddisc" / edit[0]).write_text(edit[1], encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        # the copy's package, not an installed one, is what the suite must import
        where = subprocess.run([sys.executable, "-c", "import quaddisc; print(quaddisc.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(tree)):
            _stop(f"the copy imports quaddisc from {where!r}, not from {tree}")
        t0 = time.perf_counter()
        try:
            done = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s", time.perf_counter() - t0
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        return done.returncode, failed.group(1) if failed else "", time.perf_counter() - t0


def main() -> int:
    start = time.perf_counter()
    edits = [(m, _mutated(m, old, new), why) for m, old, new, why in MUTANTS]
    for module, old, new, why in EQUIVALENT:
        _mutated(module, old, new)
        print(f"equivalent, not run  {module}: {why}")
    status, failed, seconds = _suite(None)
    if status != 0:
        _stop(f"the suite fails on the unmutated tree ({failed or f'exit {status}'})")
    print(f"unmutated suite passes  {seconds:6.1f} s")
    survivors = []
    for module, text, why in edits:
        status, failed, seconds = _suite((module, text))
        if status == 0:
            survivors.append(f"{module}: {why}")
            print(f"SURVIVED {seconds:6.1f} s  {module}: {why}")
        else:
            print(f"killed   {seconds:6.1f} s  {module}: {why}  [{failed or f'exit {status}'}]")
    print(f"{len(edits) - len(survivors)} of {len(edits)} mutants killed, "
          f"{len(EQUIVALENT)} equivalent listed, in {time.perf_counter() - start:.0f} s")
    for survivor in survivors:
        print(f"survivor: {survivor}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
