"""Warm-started sweeps against cold scans on the same inputs.

A process starts each scan at the larger of n and the least modulus it last
found, when that was for a smaller n of the same sequence.  Every record must
come out exactly as the cold scan from n gives it, for each sequence family,
across gaps in the n-set, past a scan ceiling and at any parallelism.
"""

import math
import multiprocessing
import os
import random
from types import SimpleNamespace

import pytest

import quaddisc.discriminator as discriminator
import quaddisc.runner as runner
from quaddisc.campaigns import CampaignConfig, parse_record, serialize_record
from quaddisc.runner import _chunk, _compute, run
from quaddisc.tables import EXIT_CEILING, EXIT_OK
from quaddisc.conjectures import PAIR_THRESHOLD
from quaddisc.ntcore import DEFAULT_SCAN_CEILING
from quaddisc.verifier import REMARK12_CASES, THEOREM12_CASES

from conftest import dispatch


def holey_ns(seed, lo, hi, share=0.3):
    """Ascending n in [lo, hi] with a seeded share left out."""
    rng = random.Random(seed)
    ns = list(range(lo, hi + 1))
    return sorted(rng.sample(ns, len(ns) - round(share * len(ns))))


def cold_dispatch(command, params, n):
    """The record of a scan that starts at n: no hint from an earlier scan."""
    discriminator._hints.clear()
    return dispatch(command, params, n)


def sweep(command, params, ns):
    """The records of a serial run over ns, read back from its chunk text."""
    return [parse_record(line) for text, _ in _compute(command, [(params, ns)], 1)
            for line in text.splitlines()]


def assert_sweep_matches_cold(command, params, ns):
    params = dict(params, ceiling=params.get("ceiling", DEFAULT_SCAN_CEILING))
    warm = [dict(r, ms=0) for r in sweep(command, params, ns)]
    cold = [dict(cold_dispatch(command, params, n), ms=0) for n in ns]
    assert warm == cold
    return warm


@pytest.mark.parametrize("case_id", sorted(THEOREM12_CASES))
def test_theorem12_sweep_matches_cold(case_id):
    ns = holey_ns(f"t12:{case_id}", 1, 300)
    assert_sweep_matches_cold("verify-theorem12", {"case": case_id}, ns)


@pytest.mark.parametrize("sign", sorted(REMARK12_CASES))
def test_remark12_sweep_matches_cold(sign):
    ns = holey_ns(f"r12:{sign}", 1, 300)
    assert_sweep_matches_cold("verify-remark12", {"sign": sign}, ns)


@pytest.mark.parametrize("d", range(2, 13))
def test_apcase_sweep_matches_cold(d):
    for c in range(-d + 1, d):
        if c == 0 or math.gcd(c, d) != 1:
            continue
        ns = holey_ns(f"ap:{d}:{c}", 1, 120, share=0.5)
        assert_sweep_matches_cold("verify-theorem11", {"d": d, "c": c}, ns)


def test_pair_scan_sweeps_match_cold():
    # gap 1 (conjecture 1.2) and gap 2d (conjecture 1.1)
    assert_sweep_matches_cold("conjecture", {"id": "1.2"}, holey_ns("c12", 1, 300))
    for d in PAIR_THRESHOLD:
        ns = holey_ns(f"c11:{d}", 1, 80, share=0.5)
        assert_sweep_matches_cold("conjecture", {"id": "1.1", "d": d}, ns)


@pytest.mark.parametrize("form", ["x^2+x+1", "4x^2+1"])
@pytest.mark.parametrize("variant", ["choose2", "squares"])
def test_form_modulus_sweep_matches_cold(form, variant):
    ns = [1, *holey_ns(f"c13:{form}:{variant}", 2, 300)]
    recs = assert_sweep_matches_cold(
        "conjecture", {"id": "1.3", "form": form, "variant": variant}, ns
    )
    assert recs[0]["match"] is False  # n = 1 disagrees, so certificates are compared too


def test_prime_indexed_sweep_matches_cold():
    assert_sweep_matches_cold("conjecture", {"id": "1.4"}, holey_ns("c14", 3, 90))


def test_discriminator_sweep_matches_cold():
    assert_sweep_matches_cold("discriminator", {"A": 32, "B": -8}, holey_ns("disc", 1, 300))


def test_sweep_starts_at_previous_least_modulus(monkeypatch):
    # the warm start is really taken: each n after the first checks exactly the
    # candidates from max(D(previous n), n) up to D(n)
    monkeypatch.setattr(discriminator, "_hints", {})
    checked = []
    real = discriminator._separates

    def counting(seq, n, m):
        checked.append(m)
        return real(seq, n, m)

    monkeypatch.setattr(discriminator, "_separates", counting)
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    ns = holey_ns("count", 4, 200)
    recs = sweep("verify-theorem12", params, ns)
    expected, lower = 0, ns[0]
    for r in recs:
        expected += r["least_m"] - max(lower, r["n"]) + 1
        lower = r["least_m"]
    assert len(checked) == expected
    assert expected < sum(r["least_m"] - r["n"] + 1 for r in recs) / 10


def test_later_sweep_starts_at_last_least_modulus(monkeypatch):
    # a pool worker's next chunk, or a later campaign in the same process,
    # starts where the last scan of the same sequence ended, and one that does
    # not lie above it starts cold
    monkeypatch.setattr(discriminator, "_hints", {})
    checked = []
    real = discriminator._separates

    def counting(seq, n, m):
        checked.append((n, m))
        return real(seq, n, m)

    monkeypatch.setattr(discriminator, "_separates", counting)
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    first = sweep("verify-theorem12", params, list(range(4, 60)))
    checked.clear()
    second = sweep("verify-theorem12", params, list(range(80, 120)))
    assert checked[0] == (80, first[-1]["least_m"]) and first[-1]["least_m"] > 80
    for recs, ns in ((first, range(4, 60)), (second, range(80, 120))):
        assert [r["least_m"] for r in recs] == [
            cold_dispatch("verify-theorem12", params, n)["least_m"] for n in ns
        ]
    checked.clear()
    sweep("verify-theorem12", params, list(range(100, 110)))
    assert checked[0] == (100, 100)  # below the last scan: no hint
    checked.clear()
    other = dict(params, case="3k+1")
    third = sweep("verify-theorem12", other, list(range(150, 160)))
    assert checked[0] == (150, 150)  # another sequence: no hint
    # the hint is process-wide: a sweep after one of the same sequence starts
    # warm, one of another sequence starts cold
    checked.clear()
    (rec,) = sweep("verify-theorem12", other, [170])
    assert checked[0] == (170, third[-1]["least_m"]) and third[-1]["least_m"] > 170
    assert rec["least_m"] == cold_dispatch("verify-theorem12", other, 170)["least_m"]
    checked.clear()
    sweep("verify-theorem12", params, [200])
    assert checked[0] == (200, 200)


def test_ceiling_crossed_mid_slice_matches_cold():
    # D(n) for 3k-1 grows like 3n, so a ceiling of 150 is crossed near n = 50;
    # the error records are those of the cold run, and the hint survives them
    ns = holey_ns("ceil", 4, 90)
    recs = assert_sweep_matches_cold("verify-theorem12", {"case": "3k-1", "ceiling": 150}, ns)
    errors = [r["n"] for r in recs if r.get("error") == "scan_ceiling"]
    assert errors and len(errors) < len(recs)
    # 1.1 with d = 1: the prediction (twin primes) crosses the ceiling at other
    # n than the pair scan does
    recs = assert_sweep_matches_cold(
        "conjecture", {"id": "1.1", "d": 1, "ceiling": 200}, list(range(1, 120))
    )
    assert any(r.get("error") for r in recs) and any(not r.get("error") for r in recs)


def cold_stream(command, params, ns, ceiling=DEFAULT_SCAN_CEILING):
    params = dict(params, ceiling=ceiling)
    return "".join(
        serialize_record(dict(cold_dispatch(command, params, n), ms=0)) + "\n" for n in ns
    ).encode()


CAMPAIGNS = [
    ("verify-theorem12", {"case": "3k+2"}, 4, 260),
    ("conjecture", {"id": "1.3", "form": "x^2+x+1", "variant": "squares"}, 1, 200),
]


@pytest.fixture
def fork_early(monkeypatch):
    """Campaigns at K > 1 fork their pool after the first serial chunk."""
    monkeypatch.setattr(runner, "_POOL_AFTER_S", 0.0)


@pytest.mark.parametrize("command,params,n_from,n_to", CAMPAIGNS)
def test_streams_identical_across_parallelism(tmp_path, capsys, fork_early,
                                              command, params, n_from, n_to):
    fresh, summaries = {}, {}
    for par in (1, 2, 3):
        path = tmp_path / f"fresh{par}.jsonl"
        assert run(CampaignConfig(command, params, n_from, n_to, parallelism=par,
                                  output=str(path), timing=False)) == EXIT_OK
        fresh[par] = path.read_bytes()
        summaries[par] = capsys.readouterr().err
    assert summaries[1] == summaries[2] == summaries[3]
    assert fresh[1] == fresh[2] == fresh[3] == cold_stream(
        command, params, range(n_from, n_to + 1)
    )

    lines = fresh[1].decode().splitlines(keepends=True)
    rng = random.Random(f"holes:{command}")
    drop = set(rng.sample(range(len(lines)), max(1, round(0.05 * len(lines)))))
    kept = "".join(line for i, line in enumerate(lines) if i not in drop)
    resumed = {}
    for par in (1, 2, 3):
        path = tmp_path / f"resumed{par}.jsonl"
        path.write_text(kept)
        assert run(CampaignConfig(command, params, n_from, n_to, parallelism=par,
                                  output=str(path), resume=True, timing=False)) == EXIT_OK
        resumed[par] = path.read_bytes()
        summaries[par] = capsys.readouterr().err
    assert summaries[1] == summaries[2] == summaries[3]
    assert resumed[1] == resumed[2] == resumed[3]
    assert sorted(resumed[1].decode().splitlines()) == sorted(fresh[1].decode().splitlines())


def test_ceiling_stream_identical_across_parallelism(tmp_path, capsys, fork_early):
    streams, summaries = [], []
    for par in (1, 2, 3):
        path = tmp_path / f"ceil{par}.jsonl"
        rc = run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 90, parallelism=par,
                                output=str(path), scan_ceiling=150, timing=False))
        assert rc == EXIT_CEILING
        streams.append(path.read_bytes())
        summaries.append(capsys.readouterr().err)
    assert streams[0] == streams[1] == streams[2]
    assert summaries[0] == summaries[1] == summaries[2]
    assert streams[0] == cold_stream("verify-theorem12", {"case": "3k-1"}, range(4, 91), 150)


def test_resume_never_hints_from_prior_records(tmp_path):
    # a prior record whose least_m is far too high must not become a scan start
    # for the hole after it
    path = tmp_path / "prior.jsonl"
    assert run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 40, parallelism=1,
                              output=str(path), timing=False)) == EXIT_OK
    fresh = path.read_text().splitlines(keepends=True)
    bad = parse_record(fresh[10])
    bad["least_m"] = 10**6
    prior = fresh[:10] + [serialize_record(bad) + "\n"] + fresh[12:]
    path.write_text("".join(prior))
    assert run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 40, parallelism=1,
                              output=str(path), resume=True, timing=False)) == EXIT_OK
    assert path.read_text().splitlines(keepends=True)[-1] == fresh[11]


def fake_clock(monkeypatch, costs):
    """Make the k-th chunk _compute times take costs[k] s: the clock reads the
    costs of the chunks done so far, so it stands still inside a chunk, whose
    compute reads it too."""
    done, real = [], runner._chunk
    monkeypatch.setattr(runner, "_chunk", lambda *args: (real(*args), done.append(1))[0])
    monkeypatch.setattr(runner, "time",
                        SimpleNamespace(perf_counter=lambda: sum(costs[:len(done)])))


T = runner._POOL_AFTER_S


@pytest.mark.parametrize("costs,pooled", [
    ([T / 20] * 16, []),  # under T in all
    # a first chunk that builds caches projects far past T, but the compute
    # spent never passes T
    ([T / 2] + [T / 100] * 15, []),
    # spent passes T after 12 chunks, but the 8 items left project below it
    ([T * 0.09] * 16, []),
    ([T * 0.09] * 14 + [2 * T, T], []),  # one chunk left never pays for a pool
    ([T / 2.5] * 16, list(range(10, 36, 2))),  # past T after 3 chunks: 13 go to the pool
    # cost rising: the last chunk's rate projects past T where the mean does not
    ([T * 0.09] * 12 + [T] * 4, [30, 32, 34]),
])
def test_switch_rule(monkeypatch, serial_pool, costs, pooled):
    # 32 items at K = 2 make 16 chunks of 2; the pool is handed the chunks left
    serial = cold_stream("verify-theorem12", {"case": "3k-1"}, range(4, 36))
    fake_clock(monkeypatch, costs)
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    text = "".join(t for t, _ in _compute("verify-theorem12", [(params, list(range(4, 36)))], 2,
                                          timing=False))
    assert text.encode() == serial
    assert [items[0] for _, chunks in serial_pool for _, items in chunks] == pooled


def chunk_with_start_hint(*args):
    """_chunk's result, with the process and the 3k-1 scan hint its chunk
    starts from."""
    return os.getpid(), discriminator._hints.get(THEOREM12_CASES["3k-1"].seq), _chunk(*args)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only a forked worker inherits the parent's scan hint")
def test_forked_worker_starts_from_parent_hint(monkeypatch, fork_early):
    # the parent computes the first chunk, then forks; each worker's first
    # chunk starts from the hint the parent's last scan left, not cold
    monkeypatch.setattr(discriminator, "_hints", {})
    monkeypatch.setattr(runner, "_chunk", chunk_with_start_hint)
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    results = _compute("verify-theorem12", [(params, list(range(4, 100)))], 2, timing=False)
    parent_pid, _, _ = next(results)
    parent_hint = discriminator._hints[THEOREM12_CASES["3k-1"].seq]
    assert parent_pid == os.getpid() and parent_hint[0] == 9  # chunks of 96 // 16 = 6
    first_hint = {}
    for pid, hint, _ in results:
        first_hint.setdefault(pid, hint)
    assert first_hint and parent_pid not in first_hint  # a fast worker may take every chunk
    assert all(hint == parent_hint for hint in first_hint.values())
