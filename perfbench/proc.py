"""Running the real CLI in a fresh process and reading its resource use."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAWN = Path(__file__).resolve().parent / "spawn.py"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold the program."""


def require_program() -> None:
    if not (SRC / "quaddisc" / "cli.py").is_file():
        raise CheckoutError(f"no quaddisc sources under {SRC}")


@dataclass(frozen=True)
class ProcResult:
    wall_s: float
    cpu_s: float  # user + system of the process and every worker it joined
    rss_mb: float  # largest resident set of the process or any joined worker
    code: int


def run_cli(args: list[str], stderr=subprocess.DEVNULL) -> ProcResult:
    """Run `python -m quaddisc.cli ARGS` from the checkout, through spawn.py,
    and wait for it.  The CLI's stdout is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-S", str(SPAWN), sys.executable, "-m", "quaddisc.cli", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=stderr, check=True)
    return ProcResult(**json.loads(done.stdout))
