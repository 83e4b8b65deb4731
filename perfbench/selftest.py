"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The golden check: a correct output passes, also with its keys reordered
   and real timings, and each injected fault (one
   least_m changed, one record deleted, one exit code changed) raises
   failed_ratio above zero.
2. The oracle rejects a record whose least_m is not minimal.
3. Every workload runs at tiny size, traced and untraced, and reports correct
   with no failed record.
4. In a directory holding only BENCHMARK.json and the benchmark, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from golden import campaign_lines, count_failures, expected
from oracle import spot_check
from proc import ROOT
from workloads import WORKLOADS, theorem12, window

BENCH_DIR = ROOT / "perfbench"


def check_faults() -> list[str]:
    errors = []
    scan = theorem12("3k-1", "tiny")
    want = expected(scan)
    lines = campaign_lines(scan)
    if count_failures(want, lines, want.code) != (len(want.lines), 0):
        errors.append("a correct output does not pass")
    # The same records, serialized with their keys in another order and with
    # real timings, pass through the record comparison instead of line equality.
    reordered = [json.dumps({**dict(reversed(json.loads(line).items())), "ms": 7}) + "\n"
                 for line in lines]
    if count_failures(want, reordered, want.code) != (len(want.lines), 0):
        errors.append("equal records in another key order do not pass")
    rec = json.loads(lines[10])
    rec["least_m"] += 1
    corrupt = [*lines[:10], json.dumps(rec, separators=(",", ":")) + "\n", *lines[11:]]
    deleted = [*lines[:10], *lines[11:]]
    # d = 7 holds the honest window miss at n = 468..470, so its golden exit
    # code is 2; a run that exits 0 there fails every record.
    red = window(7, "tiny")
    red_want = expected(red)
    faults = {
        "corrupt least_m": (want, corrupt, want.code),
        "deleted record": (want, deleted, want.code),
        "wrong exit code": (red_want, campaign_lines(red), 0),
    }
    for name, (w, out, got) in faults.items():
        attempted, failed = count_failures(w, out, got)
        print(f"fault {name}: failed_ratio = {failed / attempted:.4g}")
        if failed == 0:
            errors.append(f"fault not caught: {name}")
    if red_want.code == 0:
        errors.append("golden exit code of the d = 7 window lost its honest red")
    _, wrong = spot_check([rec], seed=0)
    if not wrong:
        errors.append("oracle accepts a non-minimal least_m")
    return errors


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_smoke() -> list[str]:
    errors = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", trace, "--size", "tiny")
            if done.returncode != 0:
                errors.append(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            print(f"smoke {workload} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: not correct")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    print(f"bare directory: exit {done.returncode}, stdout {len(done.stdout)} bytes")
    if done.returncode == 0 or done.stdout.strip():
        return ["run.py succeeded or printed a result without the program"]
    return []


def main() -> int:
    errors = check_faults() + check_smoke() + check_bare_directory()
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
