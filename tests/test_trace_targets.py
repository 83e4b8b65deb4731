"""The benchmark's trace targets: names the per-layer run wraps in place.

perfbench/tracing.py wraps each target at `owner.__dict__[attr]` and fails on
a missing one, and a wrapper only sees the calls that look the name up in its
owner at call time.  A rename or a captured reference would break or silently
empty the per-layer numbers.
"""

import importlib.util
from pathlib import Path

from quaddisc import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _tracing()
    for owner, attr, _, _ in tracing.TARGETS:
        assert attr in tracing._owner(owner).__dict__, f"{owner}.{attr}"


def test_campaigns_reach_their_traced_names(tmp_path, capsys):
    tracing = _tracing()
    # a resume reads template lines without parse_record, so the resumed
    # stream is conjecture 1.2's, whose records carry flags
    out = str(tmp_path / "conj12.jsonl")
    conj12 = ["conjecture", "--id", "1.2", "--n-from", "1", "--n-to", "6", "--out", out]
    argvs = [
        ["window-check", "--d", "5", "--n-from", "206", "--n-to", "215"],
        ["verify-theorem12", "--case", "3k-1", "--n-from", "4", "--n-to", "12"],
        conj12,
        conj12 + ["--resume"],
        ["conjecture", "--id", "1.4", "--n-from", "3", "--n-to", "8"],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in argvs:
            assert cli.main(argv + ["--parallelism", "1", "--no-timing"]) == 0
    capsys.readouterr()
    assert {
        "cli.main",
        "campaigns.run",
        "campaigns.serialize_record",
        "campaigns.parse_record",
        "verifier.verify",
        "verifier.prime_window_all_residues",
        "conjectures.conjecture12_check",
        "conjectures.conjecture14_check",
    } <= set(tracer.layers())
