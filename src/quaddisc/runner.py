"""Campaign execution: parallel record computation, JSONL emission, resume.

A campaign's work is an ordered list of segments, each the params that
identify its records and a range of n: one segment, n_from..n_to, for most
commands, one per bundled row for the counterexample suite.  It emits one
line-delimited JSON record per n, segment by segment, in the same order
regardless of parallelism.  Records are append-friendly and greppable; a
resumed campaign skips every key already present in the output file and
reproduces the same summary from the combined records.

This module owns the run: validation, segments, chunks and their JSONL text,
the summary counts, the switch to a worker pool and the exit status.  What
each command computes and asserts is campaigns.COMMANDS's.
"""

from __future__ import annotations

import os
import sys
import time
from bisect import bisect_left
from collections.abc import Sequence
from functools import partial

from .campaigns import COMMANDS, CampaignConfig, _head
from .ntcore import _MR_LIMIT
from .tables import EXIT_CEILING, EXIT_INVALID, EXIT_IO, EXIT_MISMATCH, EXIT_OK, _ENCODER


def _json_value(value) -> str:
    """value as the encoder writes it, without the encoder for None, a bool or
    an int."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    return _ENCODER.encode(value)


def _tally(certified: tuple, runs) -> tuple:
    """The summary counts (records, match, mismatch, unexpected, ceiling) of
    (ns, match, error) runs, n that share an outcome, in a segment whose
    Command.certified is (start, value), computed or read back for --resume.
    One bisect finds a run's asserted n, those from start on; only conjecture
    1.3's value is a rule, called for each of them."""
    start, value = certified
    records = match_count = mismatch = unexpected = ceiling = 0
    for ns, match, error in runs:
        k = len(ns)
        records += k
        match_count += k * (match is True)
        mismatch += k * (match is False)
        if error:
            ceiling += k * (error == "scan_ceiling")
        elif start is not None:
            first = bisect_left(ns, start)
            if callable(value):
                unexpected += sum(match != value(n) for n in ns[first:])
            else:
                unexpected += (match != value) * (k - first)
    return records, match_count, mismatch, unexpected, ceiling


def _chunk(command: str, timing: bool, chunk: tuple[dict, Sequence[int]]) -> tuple[str, tuple]:
    """The records of a chunk, (params, items) of one segment, as JSONL text,
    ms zeroed unless timing, and the _tally of their outcomes.

    A record is the segment's head, its serialized identity up to n's value
    such as '{"cmd":"window-check","d":20,"n":', plus the literal text of n and
    its run's tail, the outcome fields; one join writes a run.  The encoder
    runs once per chunk for the head, and then only for extra fields and
    values that are not None, a bool or an int.  The text equals
    serialize_record of each n's record built as a dict, the tests' oracle."""
    params, items = chunk
    spec = COMMANDS[command]
    head = _head(command, params)
    lines, runs = [], []
    for ns, least_m, predicted, match, extra, ms in spec.compute(params, items):
        tail = (f',"least_m":{_json_value(least_m)},"predicted":{_json_value(predicted)},'
                f'"match":{_json_value(match)},"ms":{ms if timing else 0}'
                + (f',{_ENCODER.encode(extra)[1:-1]}}}\n' if extra else "}\n"))
        lines.append(head + (tail + head).join(map(str, ns)) + tail)
        runs.append((ns, match, extra.get("error") if extra else None))
    return "".join(lines), _tally(spec.certified(params), runs)


# --- the campaign runner ----------------------------------------------------------


def _validate(config: CampaignConfig) -> dict:
    """Reject an invalid config; return the params that identify its records."""
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.parallelism < 0:
        raise ValueError("parallelism must be >= 1 (or 0 for all cores)")
    if config.resume and config.output is None:
        raise ValueError("--resume requires an output file")
    if config.scan_ceiling < 2:
        raise ValueError("scan ceiling must be >= 2")
    if config.scan_ceiling >= _MR_LIMIT:
        raise ValueError("scan ceiling must be below 2^64, where primality testing is exact")
    return COMMANDS[config.command].check(config)


def _segments(config: CampaignConfig, params: dict) -> list[tuple[dict, range]]:
    """The campaign's work: its command's segments, by default the one segment
    range(n_from, n_to + 1) of params."""
    segments = COMMANDS[config.command].segments
    if segments is not None:
        return segments(config, params)
    if config.n_from > config.n_to:
        raise ValueError(f"n_from {config.n_from} exceeds n_to {config.n_to}")
    if config.n_from < 1:
        raise ValueError(f"n must be >= 1, got {config.n_from}")
    return [(params, range(config.n_from, config.n_to + 1))]


# A pool's start, imports and round trips cost tens of ms, so a campaign forks
# one only after it has spent this much serial compute and projects at least
# as much again for the items left.  Paired runs on 2 cores put it between
# 0.05 s, where a 20,000-n window check forks and gains nothing, and 0.1 s,
# where the counterexample suite forks a chunk later than it could.
_POOL_AFTER_S = 0.075


def _pool(processes: int):
    """A pool of processes workers, forked where the OS can fork: a forked
    worker inherits the parent's scan hint and sieve blocks, so its first chunk
    starts warm, while one started by spawn or forkserver re-imports quaddisc
    cold."""
    import multiprocessing  # its import is a cost only a pool repays

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return multiprocessing.get_context(method).Pool(processes)


def _compute(command: str, segments: list[tuple[dict, Sequence[int]]], parallelism: int,
             timing: bool = True):
    """(text, counts) of _chunk for each chunk of segments, in order.  Each
    segment is cut into chunks of max(1, total // (8 * parallelism)) of its n,
    total counting the n of all segments: about 8 chunks per worker for one
    segment, the same whether or not a pool starts.  The parent computes them
    in order, timing only _chunk, until both its compute so far and the
    projected compute of the n left pass _POOL_AFTER_S; then, at parallelism
    > 1 with two chunks or more left, a pool of at most one worker per chunk
    left takes the rest, handing each worker contiguous chunks in order, so its
    scans start warm from the parent's or its previous chunk's."""
    work = partial(_chunk, command, timing)
    total = sum(len(ns) for _, ns in segments)
    size = max(1, total // (parallelism * 8))
    chunks = [(params, ns[i:i + size]) for params, ns in segments
              for i in range(0, len(ns), size)]
    spent, done = 0.0, 0
    for i, chunk in enumerate(chunks, 1):
        t0 = time.perf_counter()
        result = work(chunk)
        last = time.perf_counter() - t0
        yield result
        del result  # the caller has written it: the next chunk is computed without it
        spent += last
        done += len(chunk[1])
        left = len(chunks) - i
        # The first items build caches, so no projection counts before the
        # compute spent passes the constant; cost rises with n, so the
        # projection takes the last chunk's rate where it beats the mean.
        projected = (total - done) * max(spent / done, last / len(chunk[1]))
        if parallelism > 1 and left >= 2 and min(spent, projected) > _POOL_AFTER_S:
            with _pool(min(parallelism, left)) as pool:
                yield from pool.imap(work, chunks[i:])
            return


def _available_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: CampaignConfig) -> int:
    """Execute a campaign; stream records in work order; return the exit status."""
    try:
        params = dict(_validate(config), ceiling=config.scan_ceiling)
        segments = _segments(config, params)
    except (ValueError, KeyError) as e:
        print(f"error: invalid campaign: {e}", file=sys.stderr)
        return EXIT_INVALID

    cores = _available_cores()
    # chunks and the pool are sized by K, so a K past the cores only forks idle workers
    parallelism = min(config.parallelism, cores) or cores

    t0 = time.perf_counter()
    try:
        prior = None
        if config.resume:
            from .prior import resume  # only a resume compiles and holds its reader
            prior = resume(config.output, config.command, segments)
        out = open(config.output, "a" if config.resume else "w", encoding="utf-8") \
            if config.output else sys.stdout
    except OSError as e:
        print(f"error: cannot open output: {e}", file=sys.stderr)
        return EXIT_IO

    pending, summary = prior or (segments, [0] * 5)
    try:  # a close that fails is a failed write too
        try:
            for text, counts in _compute(config.command, pending, parallelism, config.timing):
                out.write(text)
                out.flush()
                del text  # so the next chunk is computed without this one's text
                summary = [s + c for s, c in zip(summary, counts)]
        finally:
            if config.output:
                out.close()
    except OSError as e:
        print(f"error: write failed: {e}", file=sys.stderr)
        return EXIT_IO

    wall_ms = 0 if not config.timing else int((time.perf_counter() - t0) * 1000)
    records, match, mismatch, unexpected, ceiling = summary
    print(
        f"# summary cmd={config.command} records={records} match={match} "
        f"mismatch={mismatch} unexpected={unexpected} ceiling={ceiling} ms={wall_ms}",
        file=sys.stderr,
    )
    if ceiling:
        return EXIT_CEILING
    if unexpected:
        return EXIT_MISMATCH
    return EXIT_OK
