"""Warm-started sweeps against cold scans on the same inputs.

A campaign worker starts each scan at the larger of n and the least modulus it
computed for a smaller n of its slice.  Every record must come out exactly as
the cold scan from n gives it, for each sequence family, across gaps in the
n-set, past a scan ceiling and at any parallelism.
"""

import math
import random

import pytest

import quaddisc.discriminator as discriminator
from quaddisc.campaigns import (
    EXIT_CEILING,
    EXIT_OK,
    CampaignConfig,
    _dispatch,
    _sweep,
    parse_record,
    run,
    serialize_record,
)
from quaddisc.conjectures import PAIR_THRESHOLD
from quaddisc.ntcore import DEFAULT_SCAN_CEILING
from quaddisc.verifier import REMARK12_CASES, THEOREM12_CASES


def holey_ns(seed, lo, hi, share=0.3):
    """Ascending n in [lo, hi] with a seeded share left out."""
    rng = random.Random(seed)
    ns = list(range(lo, hi + 1))
    return sorted(rng.sample(ns, len(ns) - round(share * len(ns))))


def assert_sweep_matches_cold(command, params, ns):
    params = dict(params, ceiling=params.get("ceiling", DEFAULT_SCAN_CEILING))
    warm = [dict(r, ms=0) for r in _sweep(command, params, ns)]
    cold = [dict(_dispatch(command, params, n), ms=0) for n in ns]
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
    checked = []
    real = discriminator._distinct

    def counting(seq, n, m):
        checked.append(m)
        return real(seq, n, m)

    monkeypatch.setattr(discriminator, "_distinct", counting)
    params = {"case": "3k-1", "ceiling": DEFAULT_SCAN_CEILING}
    ns = holey_ns("count", 4, 200)
    recs = list(_sweep("verify-theorem12", params, ns))
    expected, lower = 0, ns[0]
    for r in recs:
        expected += r["least_m"] - max(lower, r["n"]) + 1
        lower = r["least_m"]
    assert len(checked) == expected
    assert expected < sum(r["least_m"] - r["n"] + 1 for r in recs) / 10


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
        serialize_record(dict(_dispatch(command, params, n), ms=0)) + "\n" for n in ns
    ).encode()


CAMPAIGNS = [
    ("verify-theorem12", {"case": "3k+2"}, 4, 260),
    ("conjecture", {"id": "1.3", "form": "x^2+x+1", "variant": "squares"}, 1, 200),
]


@pytest.mark.parametrize("command,params,n_from,n_to", CAMPAIGNS)
def test_streams_identical_across_parallelism(tmp_path, command, params, n_from, n_to):
    fresh = {}
    for par in (1, 2, 3):
        path = tmp_path / f"fresh{par}.jsonl"
        assert run(CampaignConfig(command, params, n_from, n_to, parallelism=par,
                                  output=str(path), timing=False)) == EXIT_OK
        fresh[par] = path.read_bytes()
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
    assert resumed[1] == resumed[2] == resumed[3]
    assert sorted(resumed[1].decode().splitlines()) == sorted(fresh[1].decode().splitlines())


def test_ceiling_stream_identical_across_parallelism(tmp_path):
    streams = []
    for par in (1, 2, 3):
        path = tmp_path / f"ceil{par}.jsonl"
        rc = run(CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 90, parallelism=par,
                                output=str(path), scan_ceiling=150, timing=False))
        assert rc == EXIT_CEILING
        streams.append(path.read_bytes())
    assert streams[0] == streams[1] == streams[2]
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
