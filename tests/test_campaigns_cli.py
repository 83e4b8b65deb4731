"""Campaign runner and CLI: records, resume, ordering, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quaddisc.campaigns import (
    EXIT_CEILING,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    CampaignConfig,
    _load_prior,
    expected_match,
    parse_record,
    record_key,
    run,
    serialize_record,
)
from quaddisc.cli import main


def read_records(path):
    return [parse_record(line) for line in path.read_text().splitlines()]


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


def test_resume_scan_empty_and_valid(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text("")
    assert _load_prior(path).keys() == set()
    assert _load_prior(tmp_path / "absent.jsonl").keys() == set()

    recs = [
        {"cmd": "verify-theorem11", "d": 4, "c": 1, "n": n, "least_m": 1,
         "predicted": 1, "match": True, "ms": 0}
        for n in (6, 7, 8)
    ]
    path.write_text("".join(serialize_record(r) + "\n" for r in recs))
    assert len(_load_prior(path).keys()) == 3
    assert capsys.readouterr().err == ""


def test_resume_scan_skips_corrupt_line(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    good = serialize_record({"cmd": "window-check", "d": 4, "n": 79, "least_m": None,
                             "predicted": None, "match": True, "ms": 0})
    lines = [good, good.replace('"n":79', '"n":80'), good[: len(good) // 2]]
    path.write_text("\n".join(lines) + "\n")
    keys = _load_prior(path).keys()
    assert len(keys) == 2
    assert "corrupt record" in capsys.readouterr().err


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


def test_default_parallelism_follows_affinity(monkeypatch, capsys):
    import os

    import quaddisc.campaigns as campaigns

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert campaigns._available_cores() == 3

    def no_pool(*args, **kwargs):
        raise AssertionError("a process allowed one core started a pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(campaigns, "Pool", no_pool)
    assert run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 30, timing=False)) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 27

    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert campaigns._available_cores() == 7


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


def test_exit_mismatch_on_violated_expectation(tmp_path, monkeypatch, capsys):
    # claim the d=5, c=-1 corollary threshold is lower than it really is; the
    # known failing record at n = 14 must then flip the exit status
    import quaddisc.campaigns as campaigns

    monkeypatch.setitem(campaigns.COROLLARY11_THRESHOLD, (5, -1), 14)
    rc = main(["corollary11", "--d", "5", "--r", "-1", "--n-from", "14", "--n-to", "15",
               "--out", str(tmp_path / "c.jsonl"), "--no-timing"])
    assert rc == EXIT_MISMATCH
    assert "unexpected=1" in capsys.readouterr().err


def test_exit_ceiling(tmp_path, capsys):
    rc = main(["conjecture", "--id", "1.1", "--d", "1", "--n-from", "60", "--n-to", "60",
               "--scan-ceiling", "100", "--out", str(tmp_path / "c.jsonl")])
    assert rc == EXIT_CEILING
    (rec,) = read_records(tmp_path / "c.jsonl")
    assert rec["error"] == "scan_ceiling"
    assert rec["id"] == "1.1" and rec["d"] == 1 and rec["n"] == 60  # identity survives
    assert "ceiling=1" in capsys.readouterr().err


def test_exit_io_failure(tmp_path, capsys):
    rc = main(["verify-theorem11", "--d", "4", "--c", "1", "--n-from", "6", "--n-to", "6",
               "--out", str(tmp_path / "missing" / "out.jsonl")])
    assert rc == EXIT_IO
    capsys.readouterr()


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


def test_cli_tables_output(capsys):
    assert main(["tables"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 33
    assert rows[0]["d"] == 4 and rows[-1]["d"] == 36
    assert rows[27]["d"] == 31 and rows[27]["prediction_threshold"] == 24310


def test_cli_window_check_with_eps(tmp_path):
    rc, path = run_to_file(tmp_path, "w.jsonl",
                           ["window-check", "--d", "4", "--eps", "2/9",
                            "--n-from", "79", "--n-to", "80", "--no-timing"])
    assert rc == EXIT_OK
    recs = read_records(path)
    assert all(r["match"] for r in recs) and recs[0]["eps"] == "2/9"


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
    for eps in ("1/100", "1/5"):
        assert expected_match("window-check", {"d": 5, "eps": eps}, {"n": 206}) is None
    # a wider window holds wherever the default one does, so it stays asserted:
    # at d = 7, n = 468 (above the bundled 333) the class 6 mod 7 has no prime
    # in (1092, 1214.5) for eps = 8/35, which is then an unexpected miss
    for eps in (None, "2/9", "8/35", "1", "7/3"):
        params = {"d": 7, "eps": eps}
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 numpy False"
