"""Golden records and the per-record comparison behind failed_ratio.

golden/<stream>.jsonl.xz holds the `--no-timing` stdout of each golden-size
campaign at the commit the benchmark was defined on; golden/exit_codes.json
holds the exit code of every campaign any seed can pick, at every size.
Resume output is appended out of order, so outputs are compared as key maps.
"""

from __future__ import annotations

import json
import lzma
import re
from functools import cache, cached_property, lru_cache
from pathlib import Path

from workloads import Campaign

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

# The fields that identify a record, as the CLI keys records for --resume.
KEY_FIELDS = ("cmd", "id", "d", "c", "case", "sign", "form", "variant", "eps", "A", "B", "n")

_MS = re.compile(r'"ms":\d+')
_N = re.compile(r'"n":(-?\d+)')


def record_key(rec: dict) -> tuple:
    return tuple([(f, v) for f in KEY_FIELDS if (v := rec.get(f)) is not None])


def stream_path(stream: str) -> Path:
    return GOLDEN_DIR / f"{stream}.jsonl.xz"


@lru_cache(maxsize=4)
def _stream(stream: str) -> tuple[tuple[str, int], ...]:
    """The golden stream's lines, each with its newline, and the n of each."""
    with lzma.open(stream_path(stream), "rt", encoding="utf-8") as fh:
        return tuple((line, int(_N.search(line).group(1))) for line in fh)


@cache
def exit_codes() -> dict[str, int]:
    return json.loads(EXIT_CODES.read_text(encoding="utf-8"))


def campaign_lines(c: Campaign) -> list[str]:
    """The golden lines of the campaign's n-range, in order."""
    return [line for line, n in _stream(c.stream) if c.n_from <= n <= c.n_to]


class Expected:
    """A campaign's golden lines and exit code.

    Output lines are matched against golden lines as text; the golden records
    are parsed only when an output line is not a golden line, which a correct
    run never writes.
    """

    def __init__(self, lines: list[str], code: int):
        self.lines = {line: i for i, line in enumerate(lines)}  # golden line -> index
        self.code = code

    @cached_property
    def records(self) -> dict[tuple, tuple[int, dict]]:
        """record_key -> (index, golden record)."""
        records = {}
        for line, i in self.lines.items():
            rec = json.loads(line)
            records[record_key(rec)] = (i, rec)
        return records


@lru_cache(maxsize=4)
def expected(c: Campaign) -> Expected:
    """The campaign's golden records and exit code."""
    return Expected(campaign_lines(c), exit_codes()[c.exit_key])


def count_failures(want: Expected, lines: list[str], code: int) -> tuple[int, int]:
    """(attempted, failed) for one campaign's output lines and exit code.

    A golden record fails if the output lacks it, holds it twice, marks it
    with `error`, or holds a different record once `ms` is zeroed.  An output
    line that is not a golden record fails too.  A wrong exit code fails every
    record of the campaign.
    """
    seen: set[int] = set()
    bad: set[int] = set()
    extra = 0
    for line in lines:
        # Fast path: the line equals a golden line once its ms is zeroed.
        i = want.lines.get(_MS.sub('"ms":0', line, count=1))
        ok = i is not None
        if i is None:
            try:
                rec = json.loads(line)
                i, golden = want.records[record_key(rec)]
            except (ValueError, TypeError, AttributeError, KeyError):
                extra += 1  # not JSON, not a record, or no golden record has its key
                continue
            if "ms" in rec:
                rec["ms"] = 0
            ok = "error" not in rec and rec == golden
        if i in seen:
            bad.add(i)
            continue
        seen.add(i)
        if not ok:
            bad.add(i)
    attempted = len(want.lines) + extra
    if code != want.code:
        return attempted, attempted
    return attempted, len(bad) + len(want.lines) - len(seen) + extra
