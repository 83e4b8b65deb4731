"""The benchmark's workloads: the CLI campaigns each one runs, made from a seed.

A campaign is one `python -m quaddisc.cli` invocation.  Its records are checked
against a golden stream: the `--no-timing` output of the golden-size campaign,
recorded once (see make_golden.py).  A full- or tiny-size campaign covers a
prefix of the same n-range, so it is checked against the matching subset of
that stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("scan-sweep", "prime-window", "resume-holes")

# The four d = 3 product sequences of Theorem 1.2.
THEOREM12_CASES = ("3k-1", "3k+1", "3k-2", "3k+2")

# WINDOW_THRESHOLD of quaddisc.verifier at the commit the golden streams were
# recorded from.  Copied, so that a later edit of the bundled table cannot
# silently change the benchmark's inputs.
WINDOW_START = {
    4: 79, 5: 206, 6: 103, 7: 333, 8: 301, 9: 356, 10: 232,
    11: 1079, 12: 346, 13: 1166, 14: 806, 15: 1310, 16: 2183,
    17: 5153, 18: 1135, 19: 5402, 20: 2388, 21: 4059, 22: 2934,
    23: 11246, 24: 2480, 25: 13144, 26: 4775, 27: 11646,
    28: 5314, 29: 13478, 30: 5215, 31: 24334, 32: 8964,
    33: 15044, 34: 14748, 35: 16896, 36: 9847,
}

# Campaign sizes.  "full" is what a run measures and "tiny" a short prefix for
# the self-test smoke.  The golden streams are recorded at "golden" size, which
# covers both: its Theorem 1.2 streams run on to n = 1000, where the ROADMAP
# Baseline counts its candidates, while a measured sweep stops at n = 700.  A
# sweep to 1000 takes about 8 s, so a 10 s run would hold one or two of them,
# and longer runs make longer sets of runs, over which the host's speed drifts.
SIZES = ("golden", "full", "tiny")
WINDOW_COUNT = {"golden": 20_000, "full": 20_000, "tiny": 500}
THEOREM12_TO = {"golden": 1000, "full": 700, "tiny": 60}
CONJ12_TO = {"golden": 300, "full": 300, "tiny": 40}
CONJ14_TO = {"golden": 140, "full": 140, "tiny": 30}

# Share of prior records deleted before a resume campaign.
HOLE_SHARE = 0.05


@dataclass(frozen=True)
class Campaign:
    stream: str  # golden stream name
    base: tuple[str, ...]  # subcommand and identity flags
    n_from: int
    n_to: int
    resume: bool = False

    @property
    def args(self) -> list[str]:
        """CLI arguments, without --out, --parallelism and --resume."""
        return [*self.base, "--n-from", str(self.n_from), "--n-to", str(self.n_to)]

    @property
    def exit_key(self) -> str:
        """Key of the golden exit code; a resume run ends like a fresh one."""
        return " ".join(self.args)


def theorem12(case: str, size: str) -> Campaign:
    return Campaign(f"theorem12_{case}", ("verify-theorem12", "--case", case), 4, THEOREM12_TO[size])


def conj12(size: str) -> Campaign:
    return Campaign("conj12", ("conjecture", "--id", "1.2"), 1, CONJ12_TO[size])


def window(d: int, size: str) -> Campaign:
    start = WINDOW_START[d]
    return Campaign(
        f"window_d{d:02d}", ("window-check", "--d", str(d)), start, start + WINDOW_COUNT[size] - 1
    )


def conj14(size: str) -> Campaign:
    return Campaign("conj14", ("conjecture", "--id", "1.4"), 3, CONJ14_TO[size])


def all_campaigns(size: str) -> list[Campaign]:
    """Every campaign any seed can pick, at one size."""
    return [
        *(theorem12(case, size) for case in THEOREM12_CASES),
        conj12(size),
        *(window(d, size) for d in sorted(WINDOW_START)),
        conj14(size),
    ]


def pick(seed: int, rep: int) -> tuple[str, int]:
    """The Theorem 1.2 case and the window modulus d of one repetition.

    A run's median mixes several inputs: one d per run would make the seed,
    not the program, set the spread between runs.  The seed fixes an order of
    the four cases, and repetition k takes the k-th, cycling.  A window-check
    costs more the larger its start n, so the moduli are split by start into
    three thirds; the seed fixes an order within each third and which third
    comes first, and repetition k takes the next d of third k mod 3.  Any
    three repetitions in a row then hold one window from each third.  Every
    workload run with the same seed walks the same pairs, so resume-holes
    resumes exactly the streams scan-sweep and prime-window write.
    """
    rng = random.Random(seed)
    cases = rng.sample(THEOREM12_CASES, len(THEOREM12_CASES))
    by_start = sorted(WINDOW_START, key=WINDOW_START.__getitem__)
    size = len(by_start) // 3
    thirds = [rng.sample(by_start[i * size:(i + 1) * size], size) for i in rng.sample(range(3), 3)]
    ds = [d for row in zip(*thirds) for d in row]
    return cases[rep % len(cases)], ds[rep % len(ds)]


def campaigns(workload: str, seed: int, rep: int = 0, size: str = "full") -> list[Campaign]:
    case, d = pick(seed, rep)
    if workload == "scan-sweep":
        return [theorem12(case, size), conj12(size)]
    if workload == "prime-window":
        return [window(d, size), conj14(size)]
    if workload == "resume-holes":
        return [replace(theorem12(case, size), resume=True), replace(window(d, size), resume=True)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def holes(lines: list[str], seed: int, stream: str) -> list[str]:
    """The prior file of a resume campaign: lines with a seeded share deleted.

    The kept lines stay in order and the file ends with a newline; a truncated
    tail is out of scope (see README.md).
    """
    rng = random.Random(f"{seed}:{stream}")
    drop = set(rng.sample(range(len(lines)), max(1, round(HOLE_SHARE * len(lines)))))
    return [line for i, line in enumerate(lines) if i not in drop]
