"""Campaign runner and CLI: records, resume, ordering, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quaddisc.campaigns import (
    _KEY_FIELDS,
    COMMANDS,
    CampaignConfig,
    _identity,
    _window,
    expected_match,
    parse_record,
    record_key,
    serialize_record,
)
from quaddisc.cli import HELPS, main
from quaddisc.conjectures import (PAIR_THRESHOLD, conjecture11_check, conjecture12_check,
                                  conjecture13_check, conjecture14_check)
from quaddisc.discriminator import HalfQuadratic, least_modulus
from quaddisc.ntcore import (DEFAULT_SCAN_CEILING, Outcome, ScanCeilingError, first_prime_of_form,
                             radical)
from quaddisc.prior import _OUTCOMES, _code, _load_prior, resume
from quaddisc.runner import _chunk, _segments, _tally, _validate, run
from quaddisc.tables import (COUNTEREXAMPLE_RESIDUE, EXIT_CEILING, EXIT_INVALID, EXIT_IO,
                             EXIT_MISMATCH, EXIT_OK, PREDICTION_THRESHOLD, WINDOW_THRESHOLD)
from quaddisc.verifier import (COROLLARY11_THRESHOLD, REMARK12_CASES, THEOREM12_CASES,
                               _window_ends, _window_terms, prime_window_all_residues,
                               verify_remark12, verify_theorem11, verify_theorem12, window_eps)

from conftest import dispatch


def read_records(path):
    return [parse_record(line) for line in path.read_text().splitlines()]


def _cli_env(**changes):
    """os.environ with this checkout's src first on PYTHONPATH, for a CLI
    subprocess, and with changes applied: a value of None removes its name."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path, **changes)
    return {name: value for name, value in env.items() if value is not None}


def test_record_round_trip():
    samples = [
        {"cmd": "verify-theorem11", "d": 4, "c": -3, "n": 9, "least_m": 29,
         "predicted": 29, "match": True, "ms": 12},
        {"cmd": "window-check", "d": 4, "n": 79, "least_m": None, "predicted": None,
         "match": True, "ms": 0},
        {"cmd": "conjecture", "id": "1.2", "n": 5, "least_m": 11, "predicted": None,
         "match": True, "ms": 0, "flags": [True, True]},
        {"cmd": "conjecture", "id": "1.3", "form": "x^2+x+1", "variant": "squares",
         "n": 4, "least_m": 13, "predicted": 7, "match": False, "ms": 1,
         "certificate": {"kind": "predicted_modulus_collides", "modulus": 7, "k": 3,
                         "l": 4, "term_k": 9, "term_l": 16}},
        {"cmd": "discriminator", "A": 32, "B": -8, "n": 6, "least_m": 17,
         "predicted": None, "match": None, "ms": 3},
    ]
    for rec in samples:
        assert parse_record(serialize_record(rec)) == rec


def test_record_key_uses_identity_fields_only():
    a = {"cmd": "verify-theorem11", "d": 4, "c": -3, "n": 9, "least_m": 29,
         "predicted": 29, "match": True, "ms": 12}
    b = dict(a, least_m=1, predicted=2, match=False, ms=999)
    assert record_key(a) == record_key(b)
    assert record_key(a) != record_key(dict(a, n=10))


def _prefix(command, params):
    """The record_key without n of every record of a segment with these params."""
    return record_key(_identity(command, params, 0))[:-1]


_THEOREM11 = [({"d": 4, "c": 1}, range(6, 9))]
_WINDOW = [({"d": 4}, range(79, 81))]


def _prior(path, command, segments):
    """_load_prior's table of each segment as {n: (match, error)}, each n
    with a record mapped to the (match, error) that stands for its code."""
    return [{n: _OUTCOMES[code] for n, code in zip(ns, table) if code}
            for (_, ns), table in zip(segments, _load_prior(path, command, segments))]


def test_outcome_codes_keep_what_tally_reads():
    # every (match, error) counts as the one that stands for its code, in any
    # certified range: asserted True or False from n = 1, or nothing
    matches = [True, False, None, 1, 0, 1.0, 0.0, 2, -1, "x", "", [], [1], {}]
    errors = [None, "", 0, [], "scan_ceiling", "other", ["x"], 1]
    for match in matches:
        for error in errors:
            for certified in ((1, True), (1, False), (None, None)):
                assert _tally(certified, [(range(1, 4), match, error)]) == _tally(
                    certified, [(range(1, 4), *_OUTCOMES[_code(match, error)])]), (match, error)
    assert sorted({_code(m, e) for m in matches for e in errors}) == list(range(1, len(_OUTCOMES)))


def test_resume_scan_empty_and_valid(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text("")
    assert _prior(path, "verify-theorem11", _THEOREM11) == [{}]
    assert _prior(tmp_path / "absent.jsonl", "verify-theorem11", _THEOREM11) == [{}]

    recs = [
        {"cmd": "verify-theorem11", "d": 4, "c": 1, "n": n, "least_m": 1,
         "predicted": 1, "match": True, "ms": 0}
        for n in (6, 7, 8)
    ]
    path.write_text("".join(serialize_record(r) + "\n" for r in recs))
    assert _prior(path, "verify-theorem11", _THEOREM11) == [
        dict.fromkeys((6, 7, 8), (True, None))]
    assert capsys.readouterr().err == ""


def test_resume_scan_skips_corrupt_line(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    good = serialize_record({"cmd": "window-check", "d": 4, "n": 79, "least_m": None,
                             "predicted": None, "match": True, "ms": 0})
    lines = [good, good.replace('"n":79', '"n":80'), good[: len(good) // 2]]
    path.write_text("\n".join(lines) + "\n")
    assert _prior(path, "window-check", _WINDOW) == [dict.fromkeys((79, 80), (True, None))]
    assert "corrupt record" in capsys.readouterr().err


def test_resume_scan_skips_unhashable_key_field(tmp_path, capsys):
    # a key field that JSON reads as a list cannot key a record
    path = tmp_path / "records.jsonl"
    good = serialize_record({"cmd": "window-check", "d": 4, "n": 79, "least_m": None,
                             "predicted": None, "match": True, "ms": 0})
    path.write_text(good.replace('"n":79', '"n":[79]') + "\n" + good + "\n")
    assert _prior(path, "window-check", _WINDOW) == [{79: (True, None)}]
    assert f"corrupt record at {path}:1" in capsys.readouterr().err


def test_resume_scan_drops_other_campaigns(tmp_path, capsys):
    # records of another d, another command or another row go to no table,
    # with extra fields or without, even at an n of the segment
    path = tmp_path / "records.jsonl"
    window = {"cmd": "window-check", "d": 4, "n": 79, "least_m": None, "predicted": None,
              "match": True, "ms": 0}
    others = [dict(window, d=7, match=False), dict(window, d=7, n=80, flags=[True]),
              dict(window, cmd="conjecture", id="1.2", match=None, flags=[True]),
              {"cmd": "verify-remark11", "d": 4, "c": -3, "n": 80, "least_m": 25,
               "predicted": 29, "match": False, "ms": 0}]
    path.write_text("".join(serialize_record(r) + "\n" for r in [*others, window]))
    assert _prior(path, "window-check", _WINDOW) == [{79: (True, None)}]
    rows = [({"d": 4, "c": -3}, range(8, 81)), ({"d": 5, "c": -1}, range(14, 81))]
    assert _prior(path, "verify-remark11", rows) == [{80: (False, None)}, {}]
    assert capsys.readouterr().err == ""


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    return rc, path


def test_campaign_orders_records_by_n(tmp_path):
    rc, path = run_to_file(
        tmp_path, "t11.jsonl",
        ["verify-theorem11", "--d", "4", "--c", "-3", "--n-from", "9", "--n-to", "40",
         "--parallelism", "2", "--no-timing"],
    )
    assert rc == EXIT_OK
    ns = [r["n"] for r in read_records(path)]
    assert ns == list(range(9, 41))


def test_campaign_expected_example_counts(tmp_path, capsys):
    rc, path = run_to_file(
        tmp_path, "t11.jsonl",
        ["verify-theorem11", "--d", "4", "--c", "-3", "--n-from", "9", "--n-to", "28",
         "--no-timing"],
    )
    assert rc == EXIT_OK
    recs = read_records(path)
    assert len(recs) == 20 and all(r["match"] for r in recs)
    assert "match=20 mismatch=0 unexpected=0" in capsys.readouterr().err


def test_remark11_expected_mismatch_exit_zero(tmp_path, capsys):
    rc, path = run_to_file(tmp_path, "r11.jsonl",
                           ["verify-remark11", "--d", "5", "--no-timing"])
    assert rc == EXIT_OK
    (rec,) = read_records(path)
    assert rec["match"] is False and rec["n"] == 14 and rec["c"] == -1
    assert "mismatch=1 unexpected=0" in capsys.readouterr().err


def test_resume_zero_recompute_and_identical_summary(tmp_path, capsys):
    argv = ["verify-theorem11", "--d", "4", "--c", "-3", "--n-from", "9", "--n-to", "24",
            "--no-timing"]
    rc, path = run_to_file(tmp_path, "t11.jsonl", argv)
    assert rc == EXIT_OK
    first_bytes = path.read_bytes()
    first_summary = capsys.readouterr().err

    rc = main(argv + ["--out", str(path), "--resume"])
    assert rc == EXIT_OK
    second_summary = capsys.readouterr().err
    assert path.read_bytes() == first_bytes  # nothing re-emitted
    assert second_summary == first_summary


def test_resume_counterexample_suite(tmp_path, monkeypatch, capsys, serial_pool):
    # verify-remark11 --all keys each bundled row by its own segment: a resume
    # recomputes exactly the deleted and corrupt rows, serially and in a pool
    import quaddisc.campaigns as campaigns
    import quaddisc.runner as runner

    config = partial(CampaignConfig, "verify-remark11", {"all": True, "d": None}, timing=False)
    path = tmp_path / "fresh.jsonl"
    assert run(config(parallelism=1, output=str(path))) == EXIT_OK
    fresh = path.read_text().splitlines(keepends=True)
    summary = capsys.readouterr().err
    assert "records=33 match=0 mismatch=33 unexpected=0 ceiling=0" in summary
    ds = sorted(PREDICTION_THRESHOLD)
    assert [(r["d"], r["c"], r["n"]) for r in map(parse_record, fresh)] == [
        (d, COUNTEREXAMPLE_RESIDUE[d], PREDICTION_THRESHOLD[d]) for d in ds
    ]
    dropped, corrupt = set(range(0, 33, 5)), 8
    cut = fresh[corrupt][:30] + "\n"
    kept = "".join(cut if i == corrupt else line
                   for i, line in enumerate(fresh) if i not in dropped)

    calls = []
    real = campaigns.verify_theorem11
    monkeypatch.setattr(campaigns, "verify_theorem11",
                        lambda d, c, n, ceiling: calls.append(d) or real(d, c, n, ceiling))
    monkeypatch.setattr(runner, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(runner, "_available_cores", lambda: 2)
    for k in (1, 2):
        calls.clear()
        path = tmp_path / f"resumed{k}.jsonl"
        path.write_text(kept)
        assert run(config(parallelism=k, output=str(path), resume=True)) == EXIT_OK
        err = capsys.readouterr().err
        assert f"skipping corrupt record at {path}:" in err
        assert err.splitlines()[-1] == summary.splitlines()[-1]
        assert set(path.read_text().splitlines(keepends=True)) == {*fresh, cut}
        assert sorted(calls) == [ds[i] for i in sorted({*dropped, corrupt})]
    assert [size for size, _ in serial_pool] == [2]  # only K = 2 forks


def test_resume_completes_partial_file(tmp_path):
    argv = ["verify-theorem11", "--d", "4", "--c", "-3", "--no-timing"]
    rc, path = run_to_file(tmp_path, "part.jsonl", argv + ["--n-from", "9", "--n-to", "12"])
    assert rc == EXIT_OK
    rc = main(argv + ["--n-from", "9", "--n-to", "16", "--out", str(path), "--resume"])
    assert rc == EXIT_OK
    ns = [r["n"] for r in read_records(path)]
    assert ns == list(range(9, 17))  # 9..12 kept, 13..16 appended


def test_resume_after_truncated_tail(tmp_path, capsys):
    argv = ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "12", "--no-timing"]
    rc, path = run_to_file(tmp_path, "cut.jsonl", argv)
    assert rc == EXIT_OK
    full = path.read_bytes()
    path.write_bytes(full[: full.rindex(b'"n":12') + 5])  # cut inside the n = 12 record
    assert main(argv + ["--out", str(path), "--resume"]) == EXIT_OK
    assert "corrupt record" in capsys.readouterr().err
    ns = [r["n"] for r in read_records(path)]  # every line parses
    assert ns == list(range(4, 13))  # n = 12 once, after the eight kept records
    assert path.read_bytes() == full


def test_resume_skips_lines_that_are_not_utf8(tmp_path, capsys):
    # such a line is warned about and skipped like any corrupt record, and a
    # tail cut after such a byte is truncated to the byte
    argv = ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "6", "--no-timing"]
    rc, path = run_to_file(tmp_path, "fresh.jsonl", argv)
    assert rc == EXIT_OK
    fresh = path.read_bytes()
    garbage = b"\xff\xfe garbage\n"
    for prior in (garbage, garbage + b'{"cmd":"x\xff'):
        path.write_bytes(prior)
        assert main(argv + ["--out", str(path), "--resume"]) == EXIT_OK
        err = capsys.readouterr().err
        assert f"skipping corrupt record at {path}:1" in err and "records=3" in err
        assert path.read_bytes() == garbage + fresh


def test_resume_recomputes_last_record_without_newline(tmp_path, capsys):
    # a complete last record whose newline never reached the file is not done:
    # it is warned about, truncated and written again, newline and all
    argv = ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "12", "--no-timing"]
    rc, path = run_to_file(tmp_path, "nonl.jsonl", argv)
    assert rc == EXIT_OK
    full = path.read_bytes()
    assert full.count(b"\n") == 9
    path.write_bytes(full[:-1])
    assert main(argv + ["--out", str(path), "--resume"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "corrupt record" in err and "records=9" in err
    assert path.read_bytes() == full


def test_resume_after_any_cut_gives_the_fresh_run(tmp_path, capsys):
    # a campaign killed after any byte resumes to the fresh file, summary and
    # exit status; its flags lines go through parse_record.  The last prior
    # holds a cut tail that ends inside a multi-byte UTF-8 character after a
    # whole one, so only a truncation by encoded bytes restores the file.
    path = tmp_path / "cut.jsonl"
    config = partial(CampaignConfig, "conjecture", {"id": "1.2"}, 1, 25, parallelism=1,
                     output=str(path), timing=False)
    fresh_rc = run(config())
    fresh, summary = path.read_bytes(), capsys.readouterr().err
    assert b'"flags":' in fresh
    lines = fresh.splitlines(keepends=True)
    tail = lines[5][:-2] + ',"note":"\u00e9\u4e00"}'.encode()[:-3]
    priors = [fresh[:cut] for cut in sorted(random.Random(16).sample(range(len(fresh)), 150))]
    for prior in [*priors, b"".join(lines[:5]) + tail]:
        path.write_bytes(prior)
        assert run(config(resume=True)) == fresh_rc
        assert path.read_bytes() == fresh
        cut = prior.count(b"\n") + 1
        warnings = [f"warning: skipping corrupt record at {path}:{cut}\n"] \
            if prior and not prior.endswith(b"\n") else []
        assert capsys.readouterr().err == "".join([*warnings, summary])


def test_default_parallelism_follows_affinity(monkeypatch, capsys):
    import os

    import quaddisc.runner as runner

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert runner._available_cores() == 3

    def no_pool(processes):
        raise AssertionError("a process allowed one core started a pool")

    # even a switch rule that forks after the first chunk never forks on one core
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(runner, "_pool", no_pool)
    monkeypatch.setattr(runner, "_POOL_AFTER_S", 0.0)
    assert run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 30, timing=False)) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 27

    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert runner._available_cores() == 7


def test_pool_has_at_most_one_worker_per_chunk(monkeypatch, capsys, serial_pool):
    # 20 items make 20 one-item chunks at any K >= 2; with the switch after the
    # first chunk, a pool of K workers would fork K processes for the other 19
    import quaddisc.runner as runner

    config = partial(CampaignConfig, "verify-theorem12", {"case": "3k-1"}, 4, 23, timing=False)
    assert run(config(parallelism=1)) == EXIT_OK
    serial = capsys.readouterr()
    monkeypatch.setattr(runner, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(runner, "_available_cores", lambda: 64)  # K = 64 is not clamped
    for k in (64, 2):
        assert run(config(parallelism=k)) == EXIT_OK
        assert capsys.readouterr() == serial
    assert [size for size, _ in serial_pool] == [19, 2]
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    assert serial_pool[0][1] == serial_pool[1][1] == [(params, range(n, n + 1))
                                                      for n in range(5, 24)]


def test_segments_and_chunks_are_ranges(monkeypatch):
    # a default segment, and every chunk _compute cuts from it, is a range: a
    # campaign of 10^6 n holds no list of its n before it computes one
    import tracemalloc

    import quaddisc.runner as runner

    chunks = []
    monkeypatch.setattr(runner, "_chunk",
                        lambda command, timing, chunk: chunks.append(chunk) or ("", (0,) * 5))
    config = CampaignConfig("window-check", {"d": 4}, 1, 10**6)
    params = dict(_validate(config), ceiling=DEFAULT_SCAN_CEILING)
    tracemalloc.start()
    try:
        segments = _segments(config, params)
        assert list(runner._compute("window-check", segments, 1, False)) == [("", (0,) * 5)] * 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert segments == [(params, range(1, 10**6 + 1))]
    assert all(type(ns) is range and ns.step == 1 for _, ns in chunks)
    assert [ns.start for _, ns in chunks[1:]] == [ns.stop for _, ns in chunks[:-1]]
    assert chunks[0][1].start == 1 and chunks[-1][1].stop == 10**6 + 1


def test_resume_memory_does_not_grow_with_the_range(tmp_path, capsys):
    # --resume keeps one byte per n and its pending n as a range: resuming a
    # complete window prior holds the table and no more, and resuming one cut
    # after its first half holds a few copies of one chunk's text (its runs,
    # their join, its encoded bytes and the chunk written before), not a
    # record per n.  5 * 10^4 n, not more: tracemalloc makes each of the
    # read's allocations cost about a microsecond.
    import tracemalloc

    n = 5 * 10**4
    path = tmp_path / "window.jsonl"
    config = CampaignConfig("window-check", {"d": 4}, 1, n, parallelism=1, output=str(path),
                            timing=False)
    assert run(config) == EXIT_OK
    fresh = path.read_bytes()
    lines = fresh.splitlines(keepends=True)
    chunk_text = len(b"".join(lines[n // 2:])) // 8  # the last n / 2 in 8 chunks
    for prior, bound in ((fresh, n + 2**17), (b"".join(lines[:n // 2]), n + 8 * chunk_text)):
        path.write_bytes(prior)
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(config._replace(resume=True)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == fresh
        assert peak < bound, (len(prior), peak, bound)


def test_chunk_text_is_dropped_before_the_next_chunk(tmp_path):
    # a chunk's text is released once written, so the next chunk is computed
    # beside none of it: the peak is that chunk's own copies (its digit
    # strings, their join and the write's encoding), about three texts, where
    # keeping the last one made it four and a half
    import tracemalloc

    path = tmp_path / "window.jsonl"
    config = CampaignConfig("window-check", {"d": 4}, 1, 10**5, parallelism=1, output=str(path),
                            timing=False)
    tracemalloc.start()
    try:
        assert run(config) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_text = path.stat().st_size // 8
    assert peak < 3.5 * chunk_text, (peak, chunk_text)


def test_parallelism_is_clamped_to_the_cores(monkeypatch, capsys, serial_pool):
    # unclamped, K = 10^8 would cut 200 one-item chunks and size a pool of 199
    import quaddisc.runner as runner

    config = partial(CampaignConfig, "verify-theorem12", {"case": "3k-1"}, 4, 203, timing=False)
    assert run(config(parallelism=1)) == EXIT_OK
    serial = capsys.readouterr()
    monkeypatch.setattr(runner, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(runner, "_available_cores", lambda: 3)
    assert run(config(parallelism=10**8)) == EXIT_OK
    assert capsys.readouterr() == serial
    # chunks of 200 // (3 * 8) = 8 items: the parent computes the first
    assert [size for size, _ in serial_pool] == [3]
    assert [len(items) for _, items in serial_pool[0][1]] == [8] * 24


def test_determinism_across_parallelism(tmp_path):
    base = ["verify-theorem11", "--d", "5", "--c", "-1", "--n-from", "15", "--n-to", "60",
            "--no-timing"]
    _, p1 = run_to_file(tmp_path, "par1.jsonl", base + ["--parallelism", "1"])
    _, p2 = run_to_file(tmp_path, "par2.jsonl", base + ["--parallelism", "2"])
    assert p1.read_bytes() == p2.read_bytes()


def test_exit_invalid_configs(tmp_path, capsys):
    assert main(["verify-theorem11", "--d", "4", "--c", "2",
                 "--n-from", "5", "--n-to", "6"]) == EXIT_INVALID  # gcd(2,4) > 1
    assert main(["verify-theorem11", "--d", "4", "--c", "1",
                 "--n-from", "6", "--n-to", "5"]) == EXIT_INVALID  # empty range
    assert main(["verify-theorem11", "--d", "4", "--c", "1",
                 "--n-from", "5", "--n-to", "6", "--resume"]) == EXIT_INVALID  # no --out
    assert main(["discriminator", "--A", "1", "--B", "2", "--n", "3"]) == EXIT_INVALID
    assert main(["discriminator", "--A", "2", "--B", "2"]) == EXIT_INVALID  # no n given
    assert main(["conjecture", "--id", "1.3", "--n-from", "2", "--n-to", "3"]) == EXIT_INVALID
    assert main(["no-such-command"]) == EXIT_INVALID
    capsys.readouterr()
    # once a worker traceback for n < 1, and a TypeError for 1.1 without --d
    for argv in (
        ["verify-theorem12", "--case", "3k-1", "--n-from", "0", "--n-to", "3"],
        ["window-check", "--d", "5", "--n-from", "-2", "--n-to", "2", "--parallelism", "2"],
        ["discriminator", "--A", "2", "--B", "2", "--n", "0"],
        ["conjecture", "--id", "1.1", "--n-from", "1", "--n-to", "3"],
        # p + 2d is tested for primality, exact only below 2^64
        ["conjecture", "--id", "1.1", "--d", str(2**63), "--n-from", "5", "--n-to", "6"],
    ):
        assert main(argv) == EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid campaign:") and err.count("\n") == 1


def test_remark11_all_and_d_exclude_each_other(capsys):
    assert main(["verify-remark11", "--no-timing"]) == EXIT_INVALID
    assert "one of the arguments --all --d is required" in capsys.readouterr().err
    assert main(["verify-remark11", "--all", "--d", "5", "--no-timing"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


def test_exit_invalid_inseparable_discriminator(capsys):
    # k^2 - 3k: f(1) = f(2) = -2, which no modulus separates
    assert main(["discriminator", "--A", "2", "--B", "-6",
                 "--n-from", "1", "--n-to", "5"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: invalid campaign:") and err.count("\n") == 1
    assert "coincide" in err
    # the coincidence lies beyond n = 1, so a single term is fine
    assert main(["discriminator", "--A", "2", "--B", "-6", "--n", "1", "--no-timing"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["least_m"] == 1


def test_exit_invalid_scan_ceiling_from_2_64(capsys):
    # the Miller-Rabin witness set is exact only below 2^64
    argv = ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "5", "--no-timing"]
    for ceiling in (2**65, 2**64):
        assert main(argv + ["--scan-ceiling", str(ceiling)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2^64" in err
    assert main(argv + ["--scan-ceiling", str(2**64 - 1)]) == EXIT_OK
    capsys.readouterr()


def test_theorem11_rejects_d_from_2_32_in_time(capsys):
    # radical(d) trial-divides past the sieved primes below 2^16 by odd numbers
    # up to sqrt(d), which for the prime 2^61 - 1 does not end: a campaign
    # rejects d >= 2^32 before any work, and runs 4294967291, the largest prime
    # below 2^32, which the sieved primes factor at once
    env = _cli_env()
    argv = [sys.executable, "-m", "quaddisc.cli", "verify-theorem11", "--c", "1",
            "--n-from", "1", "--no-timing"]
    proc = subprocess.run(argv + ["--d", str(2**61 - 1), "--n-to", "1"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert proc.stderr == ("error: invalid campaign: d must be below 2^32, which the primes "
                           f"below 2^16 factor, got {2**61 - 1}\n")
    proc = subprocess.run(argv + ["--d", "4294967291", "--n-to", "3"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert [json.loads(line)["n"] for line in proc.stdout.splitlines()] == [1, 2, 3]
    assert proc.stderr.startswith("# summary cmd=verify-theorem11 records=3 ")
    assert main(argv[3:] + ["--d", str(2**32), "--n-to", "1"]) == EXIT_INVALID
    assert "below 2^32" in capsys.readouterr().err


def test_theorem11_campaign_factors_d_once(capsys):
    # every n of a campaign builds the (d, c) sequence from rad(d): the cache
    # factors its one d once, not once per n
    radical.cache_clear()
    argv = ["verify-theorem11", "--d", "4294967291", "--c", "1", "--n-from", "1",
            "--n-to", "50", "--no-timing", "--parallelism", "1"]
    assert main(argv) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 50
    assert radical.cache_info().misses == 1


def test_exit_mismatch_on_violated_expectation(tmp_path, monkeypatch, capsys):
    # claim the d=5, c=-1 corollary threshold is lower than it really is; the
    # known failing record at n = 14 must then flip the exit status
    import quaddisc.campaigns as campaigns

    monkeypatch.setitem(campaigns.COROLLARY11_THRESHOLD, (5, -1), 14)
    rc = main(["corollary11", "--d", "5", "--r", "-1", "--n-from", "14", "--n-to", "15",
               "--out", str(tmp_path / "c.jsonl"), "--no-timing"])
    assert rc == EXIT_MISMATCH
    assert "unexpected=1" in capsys.readouterr().err


def test_corollary11_rejects_an_uncertified_class(tmp_path, capsys):
    # (5, 3) is a valid class with no certified threshold: exit 1 before any
    # record, where 40 records, 5 of them mismatches, asserted nothing and exited 0
    out = tmp_path / "c.jsonl"
    assert main(["corollary11", "--d", "5", "--r", "3", "--n-from", "1", "--n-to", "40",
                 "--out", str(out), "--no-timing"]) == EXIT_INVALID
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        "error: invalid campaign: corollary11 certifies (d, r) in [(4, -1), (4, 1), (5, -2)")


def test_exit_mismatch_when_a_counterexample_row_matches(monkeypatch, capsys):
    # verify-remark11 expects each row to mismatch; a row that matches is an
    # unexpected outcome, so a broken row fails the run
    import quaddisc.campaigns as campaigns
    from quaddisc.ntcore import Outcome

    monkeypatch.setattr(campaigns, "verify_theorem11", lambda d, c, n, ceiling: Outcome(7, 7, True))
    assert main(["verify-remark11", "--d", "5", "--no-timing"]) == EXIT_MISMATCH
    assert "match=1 mismatch=0 unexpected=1" in capsys.readouterr().err


def test_exit_ceiling(tmp_path, capsys):
    rc = main(["conjecture", "--id", "1.1", "--d", "1", "--n-from", "60", "--n-to", "60",
               "--scan-ceiling", "100", "--out", str(tmp_path / "c.jsonl")])
    assert rc == EXIT_CEILING
    (rec,) = read_records(tmp_path / "c.jsonl")
    assert rec["error"] == "scan_ceiling"
    assert rec["id"] == "1.1" and rec["d"] == 1 and rec["n"] == 60  # identity survives
    assert "ceiling=1" in capsys.readouterr().err


def test_window_check_honours_scan_ceiling(capsys):
    # every window of n = 1000..1002 ends above 100, so no n is decided
    assert main(["window-check", "--d", "4", "--n-from", "1000", "--n-to", "1002",
                 "--scan-ceiling", "100", "--no-timing"]) == EXIT_CEILING
    out, err = capsys.readouterr()
    recs = [parse_record(line) for line in out.splitlines()]
    assert [rec["n"] for rec in recs] == [1000, 1001, 1002]
    assert all(rec["error"] == "scan_ceiling" and rec["match"] is None for rec in recs)
    assert "window of n = 1000 up to 2960" in recs[0]["detail"]
    assert err.startswith("# summary cmd=window-check records=3 match=0 mismatch=0 "
                          "unexpected=0 ceiling=3 ")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_window_check_ceiling_cuts_the_range(tmp_path, capsys, monkeypatch, serial_pool,
                                             parallelism):
    # a ceiling of 200 cuts d = 4's n = 40..100 where the windows pass it:
    # below, each n is decided as without a ceiling, then each is an error
    monkeypatch.setattr("quaddisc.runner._POOL_AFTER_S", 0.0)
    path = tmp_path / "w.jsonl"
    assert main(["window-check", "--d", "4", "--n-from", "40", "--n-to", "100",
                 "--scan-ceiling", "200", "--no-timing", "--parallelism", str(parallelism),
                 "--out", str(path)]) == EXIT_CEILING
    terms = _window_terms(4, None)
    past = [n for n in range(40, 101) if _window_ends(4, n, terms)[1] > 200]
    assert past == list(range(past[0], 101)) and 40 < past[0] < 100
    recs = read_records(path)
    assert [rec["n"] for rec in recs] == list(range(40, 101))
    assert [rec.get("error") for rec in recs] == [
        "scan_ceiling" if n in past else None for n in range(40, 101)]
    assert [rec["match"] for rec in recs if rec["n"] not in past] == [
        prime_window_all_residues(4, n) for n in range(40, past[0])]
    assert f"ceiling={len(past)} " in capsys.readouterr().err


def test_exit_io_failure(tmp_path, capsys):
    rc = main(["verify-theorem11", "--d", "4", "--c", "1", "--n-from", "6", "--n-to", "6",
               "--out", str(tmp_path / "missing" / "out.jsonl")])
    assert rc == EXIT_IO
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_out_exits_io(capsys):
    # the write fails, and so does the close that flushes it again: one error
    # line reports both
    assert main(["discriminator", "--A", "32", "--B", "-8", "--n", "6",
                 "--out", "/dev/full", "--no-timing"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: write failed: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["tables"],
                                  ["discriminator", "--A", "32", "--B", "-8", "--n", "6"]],
                         ids=["tables", "campaign"])
def test_failed_write_to_stdout_exits_io(argv, unbuffered):
    # a buffered stdout still holds what failed at exit, whose flush must not
    # fail again and turn the status into 120
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "quaddisc.cli", *argv],
                              env=_cli_env(PYTHONUNBUFFERED=unbuffered), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith("error: write failed: ") and proc.stderr.count("\n") == 1


_ANY_CAMPAIGN = ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "5"]


@pytest.mark.parametrize("argv,message", [
    (["window-check", "--d", "3", "--n-from", "1", "--n-to", "5"],
     "invalid campaign: window check requires d >= 4, got 3"),
    (["window-check", "--d", str(2**20), "--n-from", "1", "--n-to", "5"],
     "invalid campaign: window check requires d < 2^20, got 1048576"),
    (["conjecture", "--id", "1.4", "--n-from", "2", "--n-to", "5"],
     "invalid campaign: conjecture 1.4 needs n > 2"),
    (["discriminator", "--A", "32", "--B", "-8", "--n", "6", "--n-from", "1"],
     "give either --n or --n-from/--n-to"),
    (_ANY_CAMPAIGN + ["--parallelism", "-1"],
     "invalid campaign: parallelism must be >= 1 (or 0 for all cores)"),
    (_ANY_CAMPAIGN + ["--scan-ceiling", "1"], "invalid campaign: scan ceiling must be >= 2"),
], ids=["window-d-3", "window-d-2^20", "conjecture-1.4-n-2", "n-and-n-range", "parallelism--1",
        "scan-ceiling-1"])
def test_rejections_name_their_cause(argv, message, capsys):
    assert main(argv + ["--no-timing"]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_window_check_rejects_d_from_2_20_in_time(capsys):
    # the walk's set of all phi(d) classes grows with d before any window is
    # walked, and for d = 10^12 ends out of memory: a campaign rejects
    # d >= 2^20 before any work, and runs 2^20 - 1
    argv = [sys.executable, "-m", "quaddisc.cli", "window-check", "--n-from", "1", "--n-to", "1",
            "--no-timing"]
    proc = subprocess.run(argv + ["--d", str(10**12)],
                          env=_cli_env(), capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert proc.stderr == f"error: invalid campaign: window check requires d < 2^20, got {10**12}\n"
    proc = subprocess.run(argv + ["--d", str(2**20 - 1)],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert [json.loads(line)["n"] for line in proc.stdout.splitlines()] == [1]


def test_resume_warns_about_records_without_identity(tmp_path, capsys):
    # a JSON line that is not an object, and an object without cmd, are
    # corrupt records: both are warned about and left in place
    argv = ["discriminator", "--A", "32", "--B", "-8", "--n-from", "1", "--n-to", "5",
            "--no-timing", "--parallelism", "1"]
    assert main(argv) == EXIT_OK
    fresh, summary = capsys.readouterr()
    path = tmp_path / "prior.jsonl"
    prior = '[1, 2]\n{"n": 5}\n'
    path.write_text(prior)
    assert main(argv + ["--out", str(path), "--resume"]) == EXIT_OK
    assert path.read_text() == prior + fresh
    assert capsys.readouterr().err == (f"warning: skipping corrupt record at {path}:1\n"
                                       f"warning: skipping corrupt record at {path}:2\n"
                                       + summary)


def test_below_threshold_records_are_informational(tmp_path, capsys):
    # n = threshold - 1 for the d=5, c=-1 corollary: outcome recorded, exit 0
    rc, path = run_to_file(tmp_path, "c.jsonl",
                           ["corollary11", "--d", "5", "--r", "-1",
                            "--n-from", "14", "--n-to", "15", "--no-timing"])
    assert rc == EXIT_OK
    recs = read_records(path)
    assert recs[0]["match"] is False and recs[1]["match"] is True
    assert "unexpected=0" in capsys.readouterr().err


def test_expected_match_windows():
    params = {"d": 4}
    assert expected_match("window-check", params, {"n": 79}) is True
    assert expected_match("window-check", params, {"n": 78}) is None
    assert expected_match("verify-theorem11", params, {"n": 8}) is None
    assert expected_match("verify-theorem11", params, {"n": 9}) is True
    assert expected_match("verify-remark11", params, {"n": 8}) is False
    c13 = {"id": "1.3", "form": "x^2+x+1", "variant": "squares"}
    assert expected_match("conjecture", c13, {"n": 4}) is False  # 7 = 2n-1 is a form prime
    assert expected_match("conjecture", c13, {"n": 3}) is True
    assert expected_match("conjecture", dict(c13, variant="choose2"), {"n": 4}) is True
    assert expected_match("conjecture", c13, {"n": 1}) is False


def _expect_oracle(command, p, n):
    """The match the certified ranges assert for the record of n in a segment
    with params p, or None: each command's rule stated for one n at a time,
    the oracle of Command.certified and _tally."""
    def from_threshold(threshold):
        return True if threshold is not None and n >= threshold else None

    d = p.get("d")
    if command == "verify-theorem11":
        return True if d in PREDICTION_THRESHOLD and n > PREDICTION_THRESHOLD[d] else None
    if command == "verify-remark11":
        return False
    if command == "verify-theorem12":
        return from_threshold(THEOREM12_CASES[p["case"]].threshold)
    if command == "verify-remark12":
        return from_threshold(REMARK12_CASES[p["sign"]].threshold)
    if command == "corollary11":
        return from_threshold(COROLLARY11_THRESHOLD.get((d, p["c"])))
    if command == "window-check":
        if p.get("eps") is not None and Fraction(p["eps"]) < window_eps(d):
            return None
        return from_threshold(WINDOW_THRESHOLD.get(d))
    if command == "discriminator":
        return None
    if p["id"] == "1.1":
        return from_threshold(PAIR_THRESHOLD.get(d))
    if p["id"] != "1.3":
        return True
    if n == 1:
        return False
    return not (p["variant"] == "squares"
                and first_prime_of_form(p["form"], 2 * n - 1) == 2 * n - 1)


# Every command, a table row and a d outside the tables where a threshold
# depends on d, each conjecture 1.3 form and variant, and windows with eps
# None, narrower than the default (uncertified) and wider.
TALLY_CAMPAIGNS = [
    CampaignConfig("verify-theorem11", {"d": 4, "c": -3}),
    CampaignConfig("verify-theorem11", {"d": 37, "c": 1}),
    CampaignConfig("verify-remark11", {"all": False, "d": 7}),
    *(CampaignConfig("verify-theorem12", {"case": case}) for case in THEOREM12_CASES),
    *(CampaignConfig("verify-remark12", {"sign": sign}) for sign in REMARK12_CASES),
    *(CampaignConfig("corollary11", {"d": d, "c": c}) for d, c in COROLLARY11_THRESHOLD),
    CampaignConfig("window-check", {"d": 4, "eps": None}),
    CampaignConfig("window-check", {"d": 5, "eps": "1/100"}),
    CampaignConfig("window-check", {"d": 7, "eps": "8/35"}),
    CampaignConfig("window-check", {"d": 6, "eps": "7/3"}),
    CampaignConfig("window-check", {"d": 37, "eps": None}),
    CampaignConfig("conjecture", {"id": "1.1", "d": 4}),
    CampaignConfig("conjecture", {"id": "1.1", "d": 11}),
    CampaignConfig("conjecture", {"id": "1.2"}),
    *(CampaignConfig("conjecture", {"id": "1.3", "form": form, "variant": variant})
      for form in ("x^2+x+1", "4x^2+1") for variant in ("choose2", "squares")),
    CampaignConfig("conjecture", {"id": "1.4"}, 3, 3),
    CampaignConfig("discriminator", {"A": 32, "B": -8}),
]


@st.composite
def _tally_case(draw):
    """A campaign's segment params, and the runs that count its n: ascending
    n from 1 or from up to 400, past every threshold of TALLY_CAMPAIGNS, cut
    into computed runs that share a drawn outcome, and holes, found as one-n
    tuples.  The n are either a range, cut into range slices as a fresh
    segment is, or a list with gaps and holes."""
    config = draw(st.sampled_from(TALLY_CAMPAIGNS))
    seg = _segments(config, dict(_validate(config), ceiling=DEFAULT_SCAN_CEILING))[0][0]
    start = draw(st.one_of(st.just(1), st.integers(1, 400)))
    outcome = st.tuples(st.sampled_from([True, False, None]),
                        st.sampled_from([None, None, None, "scan_ceiling", "other"]))
    if draw(st.booleans()):  # a fresh default segment: a range, cut into range slices
        found, pending = set(), range(start, start + draw(st.integers(1, 60)))
    else:
        ns = list(accumulate(draw(st.lists(st.integers(1, 4), max_size=60)), initial=start))
        found = draw(st.sets(st.sampled_from(ns)))
        pending = [n for n in ns if n not in found]
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(pending))), max_size=6))
                  | {len(pending)})
    runs = [(pending[i:j], *draw(outcome)) for i, j in zip([0, *cuts], cuts) if i < j]
    runs += [((n,), *draw(outcome)) for n in sorted(found)]
    return config.command, seg, runs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_tally_case())
def test_tally_matches_each_n(case):
    # one bisect per run counts what the per-n rule counts record by record
    command, seg, runs = case
    each = [(n, match, error) for ns, match, error in runs for n in ns]
    expected = (len(each), sum(match is True for _, match, _ in each),
                sum(match is False for _, match, _ in each),
                sum(not error and _expect_oracle(command, seg, n) not in (None, match)
                    for n, match, error in each),
                sum(error == "scan_ceiling" for _, _, error in each))
    assert _tally(COMMANDS[command].certified(seg), runs) == expected
    for n, _, _ in each:
        assert expected_match(command, seg, {"n": n}) == _expect_oracle(command, seg, n)


def test_tally_campaigns_cover_every_command():
    assert {config.command for config in TALLY_CAMPAIGNS} == set(COMMANDS)


_TALLY_SEGMENTS = [_segments(config, dict(_validate(config), ceiling=DEFAULT_SCAN_CEILING))[0][0]
                   for config in TALLY_CAMPAIGNS]


@st.composite
def _resume_case(draw):
    """A campaign of TALLY_CAMPAIGNS, its segments (one, or three
    counterexample rows), each a range of up to 12 n about its certified
    start, and prior lines: its own records and those of any other campaign,
    at n in range, just outside it, true, a float or null, with match and
    error values of every class _tally tells apart, in any order, so that n
    repeat and others are holes."""
    i = draw(st.integers(0, len(TALLY_CAMPAIGNS) - 1))
    command = TALLY_CAMPAIGNS[i].command
    rows = ([dict(_TALLY_SEGMENTS[i], d=d, c=COUNTEREXAMPLE_RESIDUE[d]) for d in (4, 5, 6)]
            if command == "verify-remark11" else [_TALLY_SEGMENTS[i]])
    segments = []
    for seg in rows:
        lo = max(1, (COMMANDS[command].certified(seg)[0] or 1) - draw(st.integers(0, 6)))
        segments.append((seg, range(lo, lo + draw(st.integers(1, 12)))))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 3)):
            line_command, (seg, ns) = command, draw(st.sampled_from(segments))
        else:
            j = draw(st.integers(0, len(TALLY_CAMPAIGNS) - 1))
            line_command, seg, ns = TALLY_CAMPAIGNS[j].command, _TALLY_SEGMENTS[j], segments[0][1]
        n = draw(st.sampled_from(ns) | st.sampled_from([ns.start - 1, ns.stop, True, None]))
        if n not in (None, True) and draw(st.integers(0, 4)) == 0:
            n = float(n)
        rec = _identity(line_command, seg, n)
        rec.update(least_m=None, predicted=None, ms=0,
                   match=draw(st.sampled_from([True, False, None, 1, 0, "x"])))
        error = draw(st.sampled_from([None, None, None, "scan_ceiling", "other", ["x"]]))
        if error is not None:
            rec["error"] = error
        lines.append(serialize_record(rec) + "\n")
    return command, segments, lines


def _resume_oracle(command, segments, lines):
    """The n --resume leaves of each segment, and the summary counts of the
    prior lines, as they were taken before outcome tables: a dict per prefix
    of each record's (match, error) by its n, and one _tally run per found n."""
    found = {}
    for line in lines:
        rec = parse_record(line)
        found.setdefault(record_key(rec)[:-1], {})[rec["n"]] = rec.get("match"), rec.get("error")
    certified = COMMANDS[command].certified
    pending, summary = [], [0] * 5
    for seg, ns in segments:
        table = found.get(_prefix(command, seg), {})
        pending.append([n for n in ns if n not in table])
        counts = _tally(certified(seg), (((n,), *table[n]) for n in ns if n in table))
        summary = [s + c for s, c in zip(summary, counts)]
    return pending, summary


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_resume_case())
def test_resume_counts_runs_as_records(case):
    # the table-and-runs count of every command, conjecture 1.3's per-n rule
    # included, is the record-by-record count, and the n left of a segment
    # are a range when they are one run
    command, segments, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prior.jsonl"
        path.write_text("".join(lines))
        pending, summary = resume(path, command, segments)
    want_pending, want_summary = _resume_oracle(command, segments, lines)
    assert [seg for seg, _ in pending] == [seg for seg, _ in segments]
    assert [list(ns) for _, ns in pending] == want_pending
    assert summary == want_summary
    for _, ns in pending:
        one_run = len(ns) > 0 and ns[-1] - ns[0] == len(ns) - 1
        assert (type(ns) is range) == one_run


@st.composite
def _window_chunks(draw):
    """d, eps (None, or a positive fraction from 1/1000, where most windows
    are empty, to 30) and 21 or more ascending n, each 1 to 3 above the one
    before, cut into chunks.  The n start below d = 7's failures at 468..470,
    or at 1, near the n whose window starts at the first sieve block's end,
    or anywhere below 40,000."""
    d, start = draw(st.one_of(
        st.tuples(st.just(7), st.integers(440, 467)),
        st.tuples(st.integers(4, 36), st.one_of(st.just(1), st.integers(24000, 33000),
                                                st.integers(1, 40000)))))
    eps = draw(st.one_of(st.none(), st.fractions(min_value=Fraction(1, 1000), max_value=30,
                                                 max_denominator=1000)))
    gaps = draw(st.lists(st.integers(1, 3), min_size=20, max_size=200))
    ns = list(accumulate(gaps, initial=start))
    cuts = sorted(draw(st.sets(st.integers(1, len(ns)), max_size=4)) | {len(ns)})
    return d, eps, ns, [ns[i:j] for i, j in zip([0, *cuts], cuts) if i < j]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_window_chunks())
def test_window_runs_match_each_n(case):
    # one walk decides a run of n, passing or failing; the per-n check is its
    # oracle
    d, eps, ns, chunks = case
    params = {"d": d, "eps_fraction": eps, "ceiling": DEFAULT_SCAN_CEILING}
    runs = [run for chunk in chunks for run in _window(params, chunk)]
    assert all(run[1:3] == (None, None) and run[4] is None for run in runs)
    assert [(n, run[3]) for run in runs for n in run[0]] == [
        (n, prime_window_all_residues(d, n, eps)) for n in ns]


def test_window_certifies_failing_runs():
    # below d = 31's threshold most windows miss a class: a walk over the
    # union of a run's windows that misses one fails the whole run, so 16
    # chunks of n = 1..24333 come back as a few hundred runs, not one per
    # failing n
    params = {"d": 31, "eps_fraction": None, "ceiling": DEFAULT_SCAN_CEILING}
    ns = range(1, 24334)
    size = -(-len(ns) // 16)
    runs = [run for i in range(0, len(ns), size) for run in _window(params, ns[i:i + size])]
    assert [n for run in runs for n in run[0]] == list(ns)
    assert {run[3] for run in runs} == {True, False}
    assert len(runs) <= 1000


def _record_outcome(rec: dict) -> tuple[Outcome, list]:
    """The Outcome a record writes, and its extra fields, those after ms, in order."""
    keys = list(rec)
    extra = [(key, rec[key]) for key in keys[keys.index("ms") + 1:]]
    return Outcome(rec["least_m"], rec["predicted"], rec["match"], dict(extra) or None), extra


@pytest.mark.parametrize("command,params,ns,check", [
    ("verify-theorem11", {"d": 4, "c": -3}, (8, 9, 40), partial(verify_theorem11, 4, -3)),
    ("verify-theorem12", {"case": "3k-1"}, (3, 4, 50), partial(verify_theorem12, "3k-1")),
    ("verify-remark12", {"sign": "minus"}, (4, 5, 60), partial(verify_remark12, "minus")),
    ("conjecture", {"id": "1.1", "d": 2}, (1, 6, 30), partial(conjecture11_check, 2)),
    ("conjecture", {"id": "1.2"}, (1, 5, 100), conjecture12_check),
    ("conjecture", {"id": "1.3", "form": "x^2+x+1", "variant": "squares"}, (1, 3, 4),
     lambda n: conjecture13_check("x^2+x+1", n, "squares")),
    ("conjecture", {"id": "1.4"}, (3, 10, 40), conjecture14_check),
    ("discriminator", {"A": 32, "B": -8}, (1, 10, 40),
     lambda n: Outcome(least_modulus(HalfQuadratic(32, -8), n), None, None)),
], ids=["theorem11", "theorem12", "remark12", "conjecture11", "conjecture12", "conjecture13",
        "conjecture14", "discriminator"])
def test_a_checks_outcome_is_its_record(command, params, ns, check):
    # the record of n writes the Outcome of the library's check of n as it is:
    # least_m, predicted, match, then its extra fields in their own order
    for n in ns:
        expected = check(n)
        outcome, extra = _record_outcome(
            dispatch(command, dict(params, ceiling=DEFAULT_SCAN_CEILING), n))
        assert outcome == expected, n
        assert extra == list((expected.extra or {}).items()), n


def test_conjecture12_record_writes_flags_then_certificate(monkeypatch):
    # a classification failure (m = 24, m + 1 = 25) adds the certificate after the flags
    import quaddisc.conjectures as conjectures

    monkeypatch.setattr(conjectures, "least_modulus_pair", lambda *args, **kwargs: 24)
    expected = conjecture12_check(5)
    outcome, extra = _record_outcome(dispatch("conjecture", {"id": "1.2", "ceiling": 100}, 5))
    assert outcome == expected and not expected.match
    assert [key for key, _ in extra] == list(expected.extra) == ["flags", "certificate"]


# (command, params, first n): every command, each conjecture id, and
# verify-remark11 --all, whose bundled rows fix their own n
REGISTRY_SAMPLES = [
    ("verify-theorem11", {"d": 4, "c": -3}, 20),
    ("verify-remark11", {"all": True, "d": None}, 7),
    ("verify-theorem12", {"case": "3k-1"}, 20),
    ("verify-remark12", {"sign": "plus"}, 20),
    ("corollary11", {"d": 5, "c": -1}, 20),
    ("window-check", {"d": 5, "eps": "1/3"}, 206),
    ("conjecture", {"id": "1.1", "d": 2, "form": None, "variant": "choose2"}, 20),
    ("conjecture", {"id": "1.2", "d": None, "form": None, "variant": "choose2"}, 20),
    ("conjecture", {"id": "1.3", "d": None, "form": "x^2+x+1", "variant": "squares"}, 20),
    ("conjecture", {"id": "1.4", "d": None, "form": None, "variant": "choose2"}, 20),
    ("discriminator", {"A": 32, "B": -8}, 20),
]


def test_registry_samples_cover_every_command():
    assert {command for command, _, _ in REGISTRY_SAMPLES} == set(COMMANDS)


@pytest.mark.parametrize("command,params,n", REGISTRY_SAMPLES)
def test_resume_key_matches_record_key(monkeypatch, command, params, n):
    # --resume finds each n in its segment's table, one prefix per segment; a
    # drift from the records it writes would silently recompute or skip records
    import quaddisc.campaigns as campaigns

    config = CampaignConfig(command, params, n, n + 39)
    identity = _validate(config)

    def no_prime(*args):  # the window check scans nothing a ceiling could stop
        raise ScanCeilingError("a prime window", 10)

    for ceiling in (DEFAULT_SCAN_CEILING, 10):
        if ceiling == 10:
            monkeypatch.setattr(campaigns, "prime_window_all_residues", no_prime)
        segments = _segments(config, dict(identity, ceiling=ceiling))
        assert len(segments) == (len(PREDICTION_THRESHOLD) if params.get("all") else 1)
        for seg, ns in segments:
            prefix = _prefix(command, seg)
            for m in ns:
                rec = dispatch(command, seg, m)
                assert rec.get("error") == (None if ceiling > 10 else "scan_ceiling")
                assert (*prefix, ("n", m)) == record_key(rec)


@pytest.mark.parametrize("command,params,n", REGISTRY_SAMPLES)
def test_resume_keyer_matches_key_for(command, params, n):
    # run matches prior records by n in one table per segment prefix; prefix
    # and n must key every n, in the segment or not, as the record's own
    # identity fields do
    config = CampaignConfig(command, params, n, n + 39)
    params = dict(_validate(config), ceiling=DEFAULT_SCAN_CEILING)
    for seg, ns in _segments(config, params):
        prefix = _prefix(command, seg)
        items = [*ns, *range(1, 60)]
        assert [(*prefix, ("n", m)) for m in items] == [
            record_key(_identity(command, seg, m)) for m in items]


def _segments_of(config):
    return _segments(config, dict(_validate(config), ceiling=10**6))


# Campaigns whose segments the template read is given, one campaign a read,
# and segments of campaigns that it never is.  Lines of every campaign but
# the one read go through parse_record like any other, and to no table.  The
# known segments hold n = 1..3, so that a drawn n of 0..3 falls in or out.
_KNOWN = {
    "window-check": _segments_of(CampaignConfig("window-check", {"d": 5, "eps": "1/3"}, 1, 3)),
    "verify-remark11": [(seg, range(1, 4)) for seg, _ in _segments_of(
        CampaignConfig("verify-remark11", {"all": True, "d": None}))[:3]],
}
_OTHER = [("window-check", seg) for seg, _ in _segments_of(
    CampaignConfig("window-check", {"d": 6, "eps": None}, 103, 103))] + [
    ("conjecture", seg) for seg, _ in _segments_of(CampaignConfig("conjecture", {"id": "1.2"}))]

# Edits of a template line after which it is no longer one; json.loads reads
# most of them, some to the same key and outcome.
_REFUSED = {
    "leading zero": lambda line: line.replace('"n":', '"n":0', 1),
    "minus zero": lambda line: re.sub(r'"least_m":[^,]*', '"least_m":-0', line),
    "float": lambda line: re.sub(r'"ms":\d+', '"ms":1.0', line),
    "n true": lambda line: re.sub(r'"n":[^,]*', '"n":true', line),
    "spaces": lambda line: line.replace(',"', ', "').replace('":', '": '),
    "duplicate key": lambda line: line.replace(',"least_m"', ',"d":7,"least_m"'),
    "extra": lambda line: line[:-1] + ',"flags":[true,false]}',
    "no value": lambda line: re.sub(r'"match":[a-z]*', '"match":', line),
    "utf-8 text": lambda line: line[:-1] + ',"note":"\u00e9\u4e00"}',
    "not utf-8": lambda line: line[:-1] + '\udcff}',
    "cut": lambda line: line[:len(line) // 2],
}


@st.composite
def _prior_line(draw):
    """(bytes of one line, the command of _KNOWN whose template read must
    take it, or None)."""
    # template lines half the time and few n, so that keys repeat
    kind = draw(st.sampled_from(["template"] * len(_REFUSED) + ["error", "blank", *_REFUSED]))
    if kind == "blank":
        return draw(st.sampled_from([b"\n", b"  \n"])), None
    known = draw(st.booleans())
    command, seg = draw(st.sampled_from(
        [(c, seg) for c, segments in _KNOWN.items() for seg, _ in segments] if known else _OTHER))
    big = st.integers(-10**120, 10**120)
    n = draw(st.integers(0, 3) | big)
    rec = _identity(command, seg, n)
    if kind == "error":
        rec.update(least_m=None, predicted=None, match=None, ms=0, error="scan_ceiling",
                   detail="no modulus below 10")
    else:
        rec.update(least_m=draw(st.none() | st.integers(1, 99) | big),
                   predicted=draw(st.none() | st.integers(1, 99) | big),
                   match=draw(st.sampled_from([None, True, False])),
                   ms=draw(st.integers(0, 10**6)))
    line = serialize_record(rec)
    if kind in _REFUSED:
        line = _REFUSED[kind](line)
    fits = all(len(str(abs(v))) <= 100 for v in (n, rec["least_m"], rec["predicted"])
               if v is not None)
    taken = known and kind == "template" and fits
    return line.encode("utf-8", "surrogateescape") + b"\n", command if taken else None


def _oracle_prior(path: Path) -> tuple[dict, str, int]:
    """What _load_prior must do, line by line through parse_record and
    record_key: the mapping, the warnings, and the parse_record calls; a last
    line without its newline is cut from the file."""
    prior, warnings, calls = {}, [], 0
    *lines, tail = path.read_bytes().split(b"\n")
    for lineno, raw in enumerate(lines, 1):
        line = raw.decode("utf-8", "surrogateescape") + "\n"
        if line.isspace():
            continue
        calls += 1
        try:
            rec = parse_record(line)
            prior[record_key(rec)] = (rec.get("match"), rec.get("error"))
        except (ValueError, KeyError, TypeError):
            warnings.append(f"warning: skipping corrupt record at {path}:{lineno}\n")
    if tail:
        warnings.append(f"warning: skipping corrupt record at {path}:{len(lines) + 1}\n")
        path.write_bytes(path.read_bytes()[:-len(tail)])
    return prior, "".join(warnings), calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(_prior_line(), max_size=25),
       tail=st.sampled_from(["", "cut", "no newline"]))
def test_template_read_matches_oracle(lines, tail):
    # _load_prior, given the segments of one campaign, reads exactly that
    # campaign's template lines without parse_record; table i holds the
    # outcome code of the oracle's record of each n of segment i under its
    # prefix, no table holds another campaign's, and its warnings and file
    # bytes are the oracle's
    import quaddisc.campaigns as campaigns

    data = b"".join(line for line, _ in lines)
    if tail and lines:
        last = lines[-1][0][:-1]
        data += last[:len(last) // 2] if tail == "cut" else last
    real, calls = campaigns.parse_record, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prior.jsonl"
        path.write_bytes(data)
        oracle, oracle_err, oracle_calls = _oracle_prior(path)
        oracle_bytes = path.read_bytes()
        for command, segments in _KNOWN.items():
            path.write_bytes(data)
            err = io.StringIO()
            calls.clear()
            campaigns.parse_record = lambda line: calls.append(line) or real(line)
            try:
                with contextlib.redirect_stderr(err):
                    tables = _load_prior(path, command, segments)
            finally:
                campaigns.parse_record = real
            assert len(tables) == len(segments)
            for (seg, ns), table in zip(segments, tables):
                prefix = _prefix(command, seg)
                assert {n: code for n, code in zip(ns, table) if code} == {
                    key[-1][1]: _code(*outcome) for key, outcome in oracle.items()
                    if key[:-1] == prefix and key[-1][1] in ns}
            assert err.getvalue() == oracle_err
            assert path.read_bytes() == oracle_bytes
            assert len(calls) == oracle_calls - sum(taken == command for _, taken in lines)


@pytest.mark.parametrize("command,params,n", REGISTRY_SAMPLES)
def test_resume_reads_template_lines_without_parsing(tmp_path, monkeypatch, capsys,
                                                     command, params, n):
    # a resume of a fresh stream parses only the records with extra fields
    # (conjecture 1.2 flags, 1.3 certificates), adds nothing to the file and
    # repeats the fresh summary
    import quaddisc.campaigns as campaigns

    path = tmp_path / "fresh.jsonl"
    config = partial(CampaignConfig, command, params, n, n + 39, parallelism=1,
                     output=str(path), timing=False)
    assert run(config()) == EXIT_OK
    fresh, summary = path.read_bytes(), capsys.readouterr().err
    fields = {"least_m", "predicted", "match", "ms", *_KEY_FIELDS}
    extras = sum(bool(set(json.loads(line)) - fields) for line in fresh.splitlines())
    assert (extras > 0) == (command == "conjecture" and params["id"] in ("1.2", "1.3"))

    calls = []
    real = campaigns.parse_record
    monkeypatch.setattr(campaigns, "parse_record", lambda line: calls.append(line) or real(line))
    assert run(config(resume=True)) == EXIT_OK
    assert len(calls) == extras
    assert path.read_bytes() == fresh
    assert capsys.readouterr().err == summary


# Campaigns whose records take every shape the record template writes: each
# command, a scan-ceiling error, conjecture 1.2 flags, 1.1 and 1.3
# certificates, verify-remark11's segment per row, unexpected outcomes (d = 7
# above its bundled window threshold) and --eps spellings that records carry
# as str(Fraction(eps)), 2/9 (Fraction reads Arabic-Indic digits and strips
# whitespace).
TEMPLATE_CAMPAIGNS = [
    CampaignConfig("verify-theorem11", {"d": 4, "c": -3}, 1, 30),
    CampaignConfig("verify-remark11", {"all": True, "d": None}),
    CampaignConfig("verify-theorem12", {"case": "3k+1"}, 4, 100, scan_ceiling=50),
    CampaignConfig("verify-remark12", {"sign": "minus"}, 1, 30),
    CampaignConfig("corollary11", {"d": 5, "c": -1}, 1, 30),
    CampaignConfig("window-check", {"d": 7, "eps": None}, 460, 480),
    CampaignConfig("window-check", {"d": 6, "eps": "\u0662/\u0669"}, 1, 60),
    CampaignConfig("window-check", {"d": 6, "eps": "2/9\t"}, 1, 60),
    CampaignConfig("conjecture", {"id": "1.1", "d": 1}, 1, 40),
    CampaignConfig("conjecture", {"id": "1.2"}, 1, 40),
    CampaignConfig("conjecture", {"id": "1.3", "form": "x^2+x+1", "variant": "squares"}, 1, 40),
    CampaignConfig("conjecture", {"id": "1.4"}, 3, 40),
    CampaignConfig("discriminator", {"A": 32, "B": -8}, 1, 40),
]


def test_record_template_matches_serialize_record():
    # _chunk writes records from a per-campaign template; the encoder on the
    # record conftest.dispatch builds is its oracle, and counts taken record by record
    # from those records and _expect_oracle the oracle of its counts
    assert {config.command for config in TEMPLATE_CAMPAIGNS} == set(COMMANDS)
    shapes = set()
    unexpected = 0
    for config in TEMPLATE_CAMPAIGNS:
        segments = _segments(config, dict(_validate(config), ceiling=config.scan_ceiling))
        chunks = [_chunk(config.command, False, segment) for segment in segments]
        items = [(seg, n) for seg, ns in segments for n in ns]
        oracle = [dict(dispatch(config.command, seg, n), ms=0) for seg, n in items]
        expected = "".join(serialize_record(rec) + "\n" for rec in oracle)
        assert "".join(text for text, _ in chunks) == expected, config
        timed = "".join(_chunk(config.command, True, segment)[0] for segment in segments)
        assert re.sub(r'"ms":\d+', '"ms":0', timed) == expected, config

        matches = [rec["match"] for rec in oracle]
        ceiling = [rec.get("error") == "scan_ceiling" for rec in oracle]
        surprises = sum(not error
                        and _expect_oracle(config.command, seg, n) not in (None, rec["match"])
                        for (seg, n), rec, error in zip(items, oracle, ceiling))
        counts = tuple(map(sum, zip(*(counts for _, counts in chunks))))
        assert counts == (len(oracle), matches.count(True), matches.count(False), surprises,
                          sum(ceiling)), config
        shapes.update(f for rec in oracle for f in ("error", "flags", "certificate") if f in rec)
        unexpected += surprises
    assert shapes == {"error", "flags", "certificate"} and unexpected > 0


@pytest.mark.parametrize("config", TEMPLATE_CAMPAIGNS, ids=lambda config: config.command)
def test_resume_with_holes_repeats_the_fresh_summary(tmp_path, capsys, config):
    # every third record deleted: the prior records, ceiling errors,
    # unexpected outcomes, flags, certificates and counterexample rows, are
    # counted as the fresh run counted them, and the deleted ones come back
    path = tmp_path / "holes.jsonl"
    config = config._replace(parallelism=1, output=str(path), timing=False)
    fresh_rc = run(config)
    fresh, summary = path.read_text().splitlines(keepends=True), capsys.readouterr().err
    path.write_text("".join(line for i, line in enumerate(fresh) if i % 3 != 2))
    assert run(config._replace(resume=True)) == fresh_rc
    assert capsys.readouterr().err == summary
    assert sorted(path.read_text().splitlines(keepends=True)) == sorted(fresh)


def test_cli_lists_the_campaign_commands_and_tables():
    # the CLI holds the command names and helps, so that it lists them without campaigns
    assert list(HELPS) == [*COMMANDS, "tables"]


@pytest.mark.parametrize("command", HELPS)
def test_command_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: quaddisc {command}")


def test_cli_tables_output(capsys):
    assert main(["tables"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 33
    assert rows[0]["d"] == 4 and rows[-1]["d"] == 36
    assert rows[27]["d"] == 31 and rows[27]["prediction_threshold"] == 24310


def test_cli_tables_write_failure_exits_io(monkeypatch, capsys):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["tables"]) == EXIT_IO
    assert capsys.readouterr().err == "error: write failed: [Errno 28] No space left on device\n"


def test_cli_window_check_with_eps(tmp_path):
    rc, path = run_to_file(tmp_path, "w.jsonl",
                           ["window-check", "--d", "4", "--eps", "2/9",
                            "--n-from", "79", "--n-to", "80", "--no-timing"])
    assert rc == EXIT_OK
    recs = read_records(path)
    assert all(r["match"] for r in recs) and recs[0]["eps"] == "2/9"


def test_eps_spellings_key_one_campaign(tmp_path, capsys):
    # records carry --eps as str(Fraction(eps)), so every spelling of one
    # window writes the same records and resumes the others' file whole
    argv = ["window-check", "--d", "5", "--n-from", "206", "--n-to", "210", "--no-timing"]
    rc, path = run_to_file(tmp_path, "w.jsonl", argv + ["--eps", "2/6"])
    assert rc == EXIT_OK and {r["eps"] for r in read_records(path)} == {"1/3"}
    fresh, summary = path.read_bytes(), capsys.readouterr().err
    assert main(argv + ["--eps", "1/3"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == fresh
    for eps in ("1/3", "3/9", " 1/3\t", "١/٣"):
        assert main(argv + ["--eps", eps, "--out", str(path), "--resume"]) == EXIT_OK
        assert path.read_bytes() == fresh
        assert capsys.readouterr().err == summary
    assert main(argv + ["--eps", "0.5"]) == EXIT_OK
    assert {r["eps"] for r in map(json.loads, capsys.readouterr().out.splitlines())} == {"1/2"}


def test_exit_invalid_malformed_eps(capsys):
    # once a worker traceback and exit 1 without a summary
    argv = ["window-check", "--d", "5", "--n-from", "206", "--n-to", "207", "--no-timing"]
    for eps in ("abc", "1/0", "0", "-1/3", "", "nan"):
        assert main(argv + [f"--eps={eps}"]) == EXIT_INVALID, eps
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid campaign: --eps") and captured.err.count("\n") == 1
    assert main(argv + ["--eps", "0.25"]) == EXIT_OK
    capsys.readouterr()


def test_window_expectation_only_for_certified_eps(capsys):
    # WINDOW_THRESHOLD certifies the default window, eps = 2/(11-2) = 2/9 for
    # d = 5 and 7; a narrower window may miss a class above it
    assert main(["window-check", "--d", "5", "--eps", "1/100", "--n-from", "206", "--n-to", "210",
                 "--no-timing"]) == EXIT_OK
    assert "mismatch=5 unexpected=0" in capsys.readouterr().err
    # an expectation reads the params the command's check returns, as run does
    for eps in ("1/100", "1/5"):
        params = _validate(CampaignConfig("window-check", {"d": 5, "eps": eps}))
        assert expected_match("window-check", params, {"n": 206}) is None
    # a wider window holds wherever the default one does, so it stays asserted:
    # at d = 7, n = 468 (above the bundled 333) the class 6 mod 7 has no prime
    # in (1092, 1214.5) for eps = 8/35, which is then an unexpected miss
    for eps in (None, "2/9", "8/35", "1", "7/3"):
        params = _validate(CampaignConfig("window-check", {"d": 7, "eps": eps}))
        assert expected_match("window-check", params, {"n": 333}) is True
        assert expected_match("window-check", params, {"n": 332}) is None
    assert main(["window-check", "--d", "7", "--eps", "8/35", "--n-from", "468", "--n-to", "468",
                 "--no-timing"]) == EXIT_MISMATCH
    assert "mismatch=1 unexpected=1" in capsys.readouterr().err


def test_cli_discriminator_single_n(capsys):
    assert main(["discriminator", "--A", "32", "--B", "-8", "--n", "6", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["least_m"] == 17


def test_run_config_direct_stdout(capsys):
    rc = run(CampaignConfig("verify-remark12", {"sign": "minus"}, 5, 7, timing=False))
    assert rc == EXIT_OK
    recs = [parse_record(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["n"] for r in recs] == [5, 6, 7] and all(r["match"] for r in recs)


@pytest.mark.parametrize("command,params,message", [
    ("verify-theorem12", {"case": "x"}, "unknown case 'x'"),
    ("verify-remark12", {"sign": "x"}, "sign must be 'minus' or 'plus', got 'x'"),
    ("conjecture", {"id": "9"}, "unknown conjecture id '9'"),
    ("conjecture", {"id": "1.3", "form": "x^2+x+1", "variant": "cubes"},
     "conjecture 1.3 needs --variant choose2 or squares"),
    ("bogus", {}, "unknown command 'bogus'"),
], ids=["theorem12-case", "remark12-sign", "conjecture-id", "conjecture-1.3-variant", "command"])
def test_run_rejects_what_the_parser_cannot_reach(command, params, message, capsys):
    # the parser's choices keep these values from the CLI; a config built in
    # Python reaches run's own checks
    assert run(CampaignConfig(command, params, 1, 2)) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: invalid campaign: {message}\n")


def test_remark12_minus_n4_counterexample(capsys):
    # the one value in [3, 1000] where the stated rule fails: 8, 48, 120, 224
    # are pairwise distinct modulo 15, undercutting the first prime >= 15; it
    # lies below the corrected threshold 5, so the record is informational
    rc = run(CampaignConfig("verify-remark12", {"sign": "minus"}, 4, 4, timing=False))
    assert rc == EXIT_OK
    rec = parse_record(capsys.readouterr().out.splitlines()[0])
    assert rec["least_m"] == 15 and rec["predicted"] == 17 and rec["match"] is False


# Runs the CLI in a fresh interpreter, then reports whether numpy was loaded.
_NUMPY_PROBE = """
import sys
from quaddisc.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("exit", code, "numpy", "numpy" in sys.modules)
"""

_CAMPAIGN_FLAGS = ["--parallelism", "1", "--no-timing"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["tables"],
        ["window-check", "--d", "7", "--n-from", "471", "--n-to", "490", *_CAMPAIGN_FLAGS],
        ["conjecture", "--id", "1.4", "--n-from", "3", "--n-to", "60", *_CAMPAIGN_FLAGS],
        ["verify-theorem12", "--case", "3k-1", "--n-from", "1100", "--n-to", "1100",
         *_CAMPAIGN_FLAGS],
    ],
)
def test_cli_never_loads_numpy(argv):
    # start-up is part of every CLI call; numpy alone would take about half of it
    env = _cli_env()
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 numpy False"


# Modules a CLI process does not import at start-up: dataclasses brings in
# inspect, ast and dis, fractions brings in decimal, only a pool repays
# multiprocessing, and only a resume reads its output file through pathlib.  A
# window check imports fractions only for --eps: its default window validates
# and computes without it.  Each entry point loads one
# set of quaddisc modules: `import quaddisc` none, tables, --help and an
# unknown command only cli and tables, and a campaign the library and the runner but not
# the resume reader.  A campaign's usage error loads what the campaign does:
# the CLI imports both before it builds the parser, which a lower peak RSS
# repaid.  The probe reports on stderr what `import quaddisc` loaded, on the
# first line, and main's exit status and what main loaded, on the last.
_STARTUP_PROBE = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("quaddisc.") or m in {modules!r})
import quaddisc
print(loaded(), file=sys.stderr)
from quaddisc.cli import main
print(main(sys.argv[1:]), loaded(), file=sys.stderr)
"""

_FRONT = ["quaddisc.cli", "quaddisc.tables"]
_LIBRARY = sorted([*_FRONT, "quaddisc.campaigns", "quaddisc.conjectures",
                   "quaddisc.discriminator", "quaddisc.ntcore", "quaddisc.runner",
                   "quaddisc.verifier"])
_WINDOW_ARGV = ["window-check", "--d", "5", "--n-from", "200", "--n-to", "300", *_CAMPAIGN_FLAGS]


_ENTRY_POINTS = [
    (["tables"], EXIT_OK, _FRONT),
    (["--help"], EXIT_OK, _FRONT),
    (["bogus"], EXIT_INVALID, _FRONT),
    (["window-check", "--d", "5"], EXIT_INVALID, _LIBRARY),
    (_WINDOW_ARGV, EXIT_OK, _LIBRARY),
    (_WINDOW_ARGV + ["--eps", "2/9"], EXIT_OK, sorted([*_LIBRARY, "decimal", "fractions"])),
]


def test_cli_startup_imports():
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "multiprocessing", "typing",
                "pathlib"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, status, modules in _ENTRY_POINTS:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _STARTUP_PROBE.format(modules=unwanted), *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert [lines[0], lines[-1]] == ["[]", f"{status} {modules}"], argv


def test_no_module_compiles_past_the_peak():
    # A process that compiles the package from source (no bytecode cache)
    # peaks at the compiler's peak for its largest module; the one warm-up
    # compile of each keeps the compiler's own first allocations out.
    import tracemalloc

    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((Path(__file__).resolve().parents[1] / "src" / "quaddisc")
                                  .glob("*.py"))}
    peaks = {}
    for name, text in sources.items():
        compile(text, name, "exec")
        tracemalloc.start()
        try:
            compile(text, name, "exec")
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    name = max(peaks, key=peaks.get)
    assert peaks[name] < 1.25 * 2**20, (
        f"compiling {name} peaks at {peaks[name] / 1024:.0f} KiB: the largest module sets the "
        f"peak RSS of a campaign run from source")
