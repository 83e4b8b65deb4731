"""--resume: the records already in a campaign's output file, as one byte
per n of each segment, and the work and summary counts they leave.  Only a
resuming campaign imports this module, so a fresh one neither compiles nor
holds any of it.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

from . import campaigns  # parse_record is looked up there, where tracing wraps it
from .campaigns import COMMANDS, _head, _identity, record_key
from .runner import _tally

# A canonical JSON int, as str(int) writes it, of at most 100 digits: a longer
# one could exceed Python's int-to-str digit limit, which json.loads enforces.
_JSON_INT = "(?:0|-?[1-9][0-9]{0,99})"

# A prior record's outcome code keeps exactly what _tally reads of its (match,
# error): 0 is no record, 1 + 3 * i + j is match class i and error class j.
# match is True, is False, equals True (1), equals False (0) or neither;
# error is falsy, "scan_ceiling" or any other.  _OUTCOMES[code] is a (match,
# error) of the class, which _tally counts as it counts every member.
_OUTCOMES = (None, *((m, e) for m in (True, False, 1, 0, None)
                     for e in (None, "scan_ceiling", "error")))


def _code(match, error) -> int:
    """The outcome code of a record's (match, error)."""
    i = (0 if match is True else 1 if match is False else 2 if match == 1
         else 3 if match == 0 else 4)
    return 1 + 3 * i + (0 if not error else 1 if error == "scan_ceiling" else 2)


def _load_prior(path: Path, command: str, segments: list) -> list[bytearray]:
    """The outcome code (_code) of each record already present at path, one
    table per segment of command, in order, byte n - ns.start for each n of
    the segment's range ns: all the summary reads of it.  A code of 0 is no
    record.  Each segment's head (see _head) and prefix, the record_key of its
    records without n, name its table for _read_prior."""
    heads, prefixes, tables = {}, {}, []
    for seg, ns in segments:
        tables.append(bytearray(len(ns)))
        prefixes[record_key(_identity(command, seg, 0))[:-1]] = heads[_head(command, seg)] = (
            tables[-1], ns.start)
    if path.exists():
        _read_prior(path, heads, prefixes)
    return tables


def _read_prior(path: Path, heads: dict, prefixes: dict) -> None:
    """Write the code of each record at path into the (table, first n) that
    heads or prefixes name for it.  Only newline-terminated lines are records:
    a corrupt one is warned about and skipped, and a last line without its
    newline, cut mid-write, is warned about and truncated away, so its record
    is recomputed and appended records start on a line of their own.

    A line that is exactly what _chunk writes, a known head, n and the outcome
    fields with null, bool or int values and no extra field, is read from its
    literal match, without a JSON parse; every other line goes through
    parse_record and record_key, the oracle of this path, to the table of its
    prefix, where its n counts as a dict key would: true is 1, 5.0 is 5 and
    null no n.  Other campaigns' records, and n outside a table, are skipped.
    (The loop sits near this function's start: Python 3.11's tracemalloc
    finds each allocation's line by a scan from there.)"""
    template = re.compile(
        f'({"|".join(map(re.escape, heads))})({_JSON_INT}),"least_m":(?:null|{_JSON_INT}),'
        f'"predicted":(?:null|{_JSON_INT}),"match":(null|true|false),"ms":{_JSON_INT}}}\n'
    ).fullmatch
    literal = {"null": _code(None, None), "true": _code(True, None), "false": _code(False, None)}
    # A byte that is not UTF-8 reads as a lone surrogate that encodes back to
    # itself, so it cannot stop the run, and a cut tail's byte count stays exact.
    with open(path, "r+", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            fast = template(line)  # a match ends with its newline
            if fast is not None:
                head, n, match = fast.groups()
                table, start = heads[head]
                i = int(n) - start
                if 0 <= i < len(table):
                    table[i] = literal[match]
                continue
            if not line.endswith("\n"):
                print(f"warning: skipping corrupt record at {path}:{lineno}", file=sys.stderr)
                fh.truncate(fh.seek(0, os.SEEK_END) - len(line.encode("utf-8", "surrogateescape")))
                break
            if line.isspace():
                continue
            try:
                rec = campaigns.parse_record(line)
                n, found = rec["n"], prefixes.get(record_key(rec)[:-1])
                hash(n)  # an unhashable n, like an unhashable key field, is corrupt
            except (ValueError, KeyError, TypeError):
                print(f"warning: skipping corrupt record at {path}:{lineno}", file=sys.stderr)
                continue
            if type(n) is float and n.is_integer():
                n = int(n)
            if found is not None and type(n) in (int, bool):
                table, start = found
                if 0 <= n - start < len(table):
                    table[n - start] = _code(rec.get("match"), rec.get("error"))


# A maximal run of one outcome code: the repeat of one literal byte keeps no
# state per byte it passes, unlike a backreference pattern such as (.)\1*.
_RUN = re.compile(b"|".join(re.escape(bytes([code])) + b"+" for code in range(len(_OUTCOMES))))


def _runs(ns: range, table: bytearray, holes: list):
    """(ns, match, error) of each maximal run of one code in the table of
    ns, in order, for _tally; the runs without a record, code 0, go to holes
    instead, as ranges of n.  One walk over the table finds both."""
    for run in _RUN.finditer(table):
        start, stop = run.span()
        if table[start]:
            yield ns[start:stop], *_OUTCOMES[table[start]]
        else:
            holes.append(ns[start:stop])


def resume(path: str, command: str, segments: list) -> tuple[list, list]:
    """The work segments leave after the records already at path, and the
    summary counts of those records.  Each segment's table (_load_prior) is
    walked once by its runs of one code (_runs): a run with a record is one
    _tally run, as a computed run is, and the runs without are the n left, a
    range when they are one run, such as a cut tail."""
    certified = COMMANDS[command].certified
    pending, summary = [], [0] * 5
    for (seg, ns), table in zip(segments, _load_prior(Path(path), command, segments)):
        holes = []
        counts = _tally(certified(seg), _runs(ns, table, holes))
        pending.append((seg, holes[0] if len(holes) == 1 else [n for hole in holes for n in hole]))
        summary = [s + c for s, c in zip(summary, counts)]
    return pending, summary
