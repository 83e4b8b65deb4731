"""Per-layer numbers: spans around calls into the six modules, exact counts
and single-call probes.

The traced run calls `quaddisc.cli.main(argv)` in this process at parallelism
1, so every span lands in one process.  Each public function is wrapped at the
name its caller looks up: `least_modulus` is imported by name into
`quaddisc.verifier`, so the wrapper goes there, while `quaddisc.ntcore.is_prime`
is resolved at call time inside ntcore.  Nothing under src/ changes.
"""

from __future__ import annotations

import gzip
import importlib
import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (owner, attribute, span name, how to read the record's n from the call's
# arguments).  A span without its own n inherits its parent's.
TARGETS = (
    ("quaddisc.cli", "main", "cli.main", None),
    ("quaddisc.cli", "run", "campaigns.run", None),
    ("quaddisc.campaigns", "serialize_record", "campaigns.serialize_record", lambda a: a[0]["n"]),
    ("quaddisc.campaigns", "parse_record", "campaigns.parse_record", None),
    ("quaddisc.campaigns", "expected_match", "campaigns.expected_match", lambda a: a[2]["n"]),
    ("quaddisc.campaigns", "verify_theorem12", "verifier.verify", lambda a: a[1]),
    ("quaddisc.campaigns", "prime_window_all_residues", "verifier.prime_window_all_residues",
     lambda a: a[1]),
    ("quaddisc.campaigns", "conjecture12_check", "conjectures.conjecture12_check", lambda a: a[0]),
    ("quaddisc.campaigns", "conjecture14_check", "conjectures.conjecture14_check", lambda a: a[0]),
    ("quaddisc.verifier", "least_modulus", "discriminator.least_modulus", None),
    ("quaddisc.verifier", "predicted_prime", "verifier.prediction", None),
    ("quaddisc.verifier:ModulusClass", "first_at_least", "verifier.prediction", None),
    ("quaddisc.verifier", "primes_in_range", "ntcore.primes_in_range", None),
    ("quaddisc.verifier", "first_prime_in_ap", "ntcore.first_prime_in_ap", None),
    ("quaddisc.verifier", "is_prime", "ntcore.is_prime", None),
    ("quaddisc.conjectures", "least_modulus_pair", "discriminator.least_modulus_pair", None),
    ("quaddisc.conjectures", "first_prime_in_ap", "ntcore.first_prime_in_ap", None),
    ("quaddisc.conjectures", "is_prime", "ntcore.is_prime", None),
    ("quaddisc.conjectures", "nth_primes", "ntcore.nth_primes", None),
    ("quaddisc.ntcore", "is_prime", "ntcore.is_prime", None),
)


def _owner(path: str):
    """The module, or `module:Class`, that holds a target attribute."""
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, n]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, n_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            n = n_of(args) if n_of else (spans[parent][4] if parent >= 0 else None)
            span = [name, clock(), 0.0, parent, n]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name, n_of in TARGETS:
                owner = _owner(owner_path)
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, n_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layers(self) -> dict[str, dict]:
        """calls, total_s, self_s and durations per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
            s["durs"].append(t1 - t0)
        return out

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


SPAN_NAMES = frozenset(name for _, _, name, _ in TARGETS)


def span_metric(layers: dict[str, dict], metric: str) -> float:
    """`<span>.calls`, `.total_s`, `.self_s`, `.p50_ms` or `.p99_ms`; zero
    for a span that was never entered, as discriminator spans on prime-window."""
    span, _, field = metric.rpartition(".")
    if span not in SPAN_NAMES:
        raise KeyError(f"no span for metric {metric!r}")
    stats = layers.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
    if field in ("p50_ms", "p99_ms"):
        durs = stats["durs"]
        if len(durs) < 2:
            return 1000 * sum(durs)
        return 1000 * statistics.quantiles(durs, n=100)[int(field[1:3]) - 1]
    return stats[field]


def prefix_reject_ratio(records: list[dict], seed: int, sample: int = 8) -> float:
    """Share of candidates m in [n, least_m) that the 64-term prefix rejects,
    over a seeded sample of Theorem 1.2 records."""
    from quaddisc.discriminator import collision_witness
    from quaddisc.verifier import THEOREM12_CASES

    rng = random.Random(f"prefix:{seed}")
    chosen = rng.sample(records, min(sample, len(records)))
    tried = rejected = 0
    for rec in chosen:
        seq, n = THEOREM12_CASES[rec["case"]].seq, rec["n"]
        for m in range(n, rec["least_m"]):
            tried += 1
            rejected += collision_witness(seq, min(n, 64), m) is not None
    return rejected / tried if tried else 0.0


def _per_call_us(fn, *args, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median per-call time over batches, each batch long enough to time."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        if time.perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def probes() -> dict[str, float]:
    """Single-call costs of the layers the campaigns are built from."""
    from quaddisc.campaigns import parse_record, serialize_record
    from quaddisc.discriminator import collision_witness, pairwise_distinct
    from quaddisc.ntcore import is_prime, primes_in_range
    from quaddisc.verifier import THEOREM12_CASES

    seq = THEOREM12_CASES["3k-1"].seq
    out = {}
    for n in (100, 1000, 10000):
        # The first candidate the 64-term prefix rejects, and the first that
        # survives it and so reaches the full vectorized check.
        m = n
        while collision_witness(seq, 64, m) is None:
            m += 1
        out[f"discriminator.check_prefix_reject_us.n{n}"] = _per_call_us(pairwise_distinct, seq, n, m)
        m = n
        while collision_witness(seq, 64, m) is not None:
            m += 1
        out[f"discriminator.check_full_us.n{n}"] = _per_call_us(pairwise_distinct, seq, n, m)
    primes64 = (2**64 - 59, 2**63 - 25, 2**61 - 1)
    out["ntcore.is_prime_us.u64"] = _per_call_us(lambda: [is_prime(p) for p in primes64]) / len(primes64)
    out["ntcore.primes_in_range_us.w2000"] = _per_call_us(primes_in_range, 10**6, 10**6 + 2000)
    rec = {"cmd": "verify-theorem12", "case": "3k-1", "n": 1000, "least_m": 3001,
           "predicted": 3001, "match": True, "ms": 0}
    out["campaigns.record_round_trip_us"] = _per_call_us(lambda: parse_record(serialize_record(rec)))
    return out
