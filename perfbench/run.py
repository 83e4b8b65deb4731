"""Campaign benchmark for quaddisc.

    python3 perfbench/run.py --workload scan-sweep --seed 1 --seconds 10 --trace 0

Runs one workload's campaigns through the real CLI (`python -m quaddisc.cli`)
in fresh processes, repeatedly until --seconds of campaign time is measured,
and checks every record against the golden streams and a seeded sample
against an independent oracle.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it reports the per-layer metrics
from one traced in-process run.  The last line of stdout is one JSON object;
a results file with the environment stamp goes to .perfbench/.
See README.md for the workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from importlib import metadata
from pathlib import Path

from golden import campaign_lines, count_failures, expected
from oracle import spot_check
from proc import ROOT, SRC, CheckoutError, require_program, run_cli
from workloads import WORKLOADS, Campaign, campaigns, holes

OUT_DIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

# setup_s is the median of SETUP_MIN fresh `quaddisc tables` processes, one
# before each of the first repetitions so they sample the run, the rest after
# the last.  One untimed process first fills the page and bytecode caches.
SETUP_MIN = 9


@dataclass
class Output:
    campaign: Campaign
    lines: list[str]
    prior: int  # lines that were in the file before the campaign ran
    code: int
    bytes_written: int

    def written(self) -> list[dict]:
        """The records the campaign wrote; a line that does not parse is left
        to the golden check, which fails it."""
        records = []
        for line in self.lines[self.prior:]:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict):
                records.append(rec)
        return records


class Run:
    """One workload at one seed: its campaigns, working files and checks."""

    def __init__(self, workload: str, seed: int, size: str, work: Path):
        self.workload, self.seed, self.size, self.work = workload, seed, size, work
        self.parallelism = len(os.sched_getaffinity(0))
        self.attempted = self.failed = 0

    def campaigns(self, rep: int) -> list[Campaign]:
        return campaigns(self.workload, self.seed, rep, self.size)

    def _prepare(self, c: Campaign, out: Path) -> list[str]:
        """Write the resume prior file, or clear the output; returns its lines."""
        prior = holes(campaign_lines(c), self.seed, c.stream) if c.resume else []
        out.write_text("".join(prior), encoding="utf-8")
        return prior

    def _argv(self, c: Campaign, out: Path, parallelism: int) -> list[str]:
        resume = ["--resume"] if c.resume else []
        return [*c.args, "--parallelism", str(parallelism), "--out", str(out), *resume]

    def _collect(self, c: Campaign, out: Path, prior: list[str], code: int) -> Output:
        data = out.read_bytes()
        written = len(data) - sum(len(line.encode()) for line in prior)
        return Output(c, data.decode("utf-8").splitlines(keepends=True), len(prior), code, written)

    def check(self, outputs: list[Output]) -> None:
        for o in outputs:
            attempted, failed = count_failures(expected(o.campaign), o.lines, o.code)
            self.attempted += attempted
            self.failed += failed

    def cli_pass(self, rep: int, parallelism: int) -> tuple[dict, list[Output]]:
        """All campaigns of one repetition, each in a fresh CLI process."""
        wall = cpu = rss = 0.0
        outputs = []
        for i, c in enumerate(self.campaigns(rep)):
            out = self.work / f"cli{i}.jsonl"
            prior = self._prepare(c, out)
            with open(self.work / f"cli{i}.err", "wb") as err:
                res = run_cli(self._argv(c, out, parallelism), stderr=err)
            wall += res.wall_s
            cpu += res.cpu_s
            rss = max(rss, res.rss_mb)
            outputs.append(self._collect(c, out, prior, res.code))
        written = sum(len(o.lines) - o.prior for o in outputs)
        sample = {"wall_s": wall, "records_per_s": written / wall, "cpu_s": cpu,
                  "peak_rss_mb": rss, "records": written}
        return sample, outputs

    def in_process_pass(self, rep: int, cli) -> tuple[float, list[Output]]:
        """All campaigns of one repetition through cli.main in this process,
        serially."""
        total = 0.0
        outputs = []
        for i, c in enumerate(self.campaigns(rep)):
            out = self.work / f"inproc{i}.jsonl"
            prior = self._prepare(c, out)
            t0 = time.perf_counter()
            code = cli.main(self._argv(c, out, 1))
            total += time.perf_counter() - t0
            outputs.append(self._collect(c, out, prior, code))
        return total, outputs

    def oracle(self, outputs: list[Output]) -> dict:
        """Spot-check what the campaigns computed; a wrong record fails."""
        checked, wrong = 0, []
        for o in outputs:
            k, bad = spot_check(o.written(), self.seed)
            checked += k
            wrong += bad
        self.failed += len(wrong)
        return {"checked": checked, "wrong": wrong}


def setup_time() -> float:
    res = run_cli(["tables"])
    if res.code != 0:
        raise RuntimeError(f"`quaddisc tables` exited {res.code}")
    return res.wall_s


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_time()
    setup, samples, oracle, measured = [], [], [], 0.0
    while not samples or measured < seconds:
        if len(setup) < SETUP_MIN:
            setup.append(setup_time())
        sample, outputs = run.cli_pass(len(samples), run.parallelism)
        run.check(outputs)
        oracle.append(run.oracle(outputs))
        samples.append(sample)
        measured += sample["wall_s"]
    setup += [setup_time() for _ in range(SETUP_MIN - len(setup))]
    metrics = {k: statistics.median(s[k] for s in samples)
               for k in ("wall_s", "records_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, {"samples": samples, "setup_s": setup, "oracle": oracle}


def per_layer(run: Run, names: list[str], out_dir: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import quaddisc.cli as cli

    from tracing import Tracer, prefix_reject_ratio, probes, span_metric

    sample, outputs = run.cli_pass(0, run.parallelism)
    run.check(outputs)
    oracle = run.oracle(outputs)
    untraced_s, outputs = run.in_process_pass(0, cli)
    run.check(outputs)
    tracer = Tracer()
    with tracer.installed():
        traced_s, outputs = run.in_process_pass(0, cli)
    run.check(outputs)
    tracer.dump(out_dir / f"spans-{run.workload}-seed{run.seed}.jsonl.gz")

    layers = tracer.layers()
    scans = [r for o in outputs for r in o.written() if r["cmd"] == "verify-theorem12"]
    candidates = sum(r["least_m"] - r["n"] + 1 for r in scans)
    scan_s = span_metric(layers, "discriminator.least_modulus.total_s")
    metrics = {
        "cli.main.self_ms": 1000 * span_metric(layers, "cli.main.self_s")
            / max(1, span_metric(layers, "cli.main.calls")),
        "campaigns.bytes_written": sum(o.bytes_written for o in outputs),
        "campaigns.records_recomputed": sum(len(o.lines) - o.prior for o in outputs),
        "campaigns.core_util": sample["cpu_s"] / (run.parallelism * sample["wall_s"]),
        "discriminator.candidates": candidates,
        "discriminator.us_per_candidate": 1e6 * scan_s / candidates if candidates else 0.0,
        "discriminator.prefix_reject_ratio": prefix_reject_ratio(scans, run.seed),
        "trace.overhead_ratio": traced_s / untraced_s,
        **probes(),
    }
    for name in names:
        if name not in metrics:
            metrics[name] = span_metric(layers, name)
    detail = {"cli_pass": sample, "untraced_s": untraced_s, "traced_s": traced_s,
              "spans": len(tracer.spans), "oracle": oracle,
              "layers": {k: {f: v for f, v in s.items() if f != "durs"} for k, s in layers.items()}}
    return metrics, detail


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent repo's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    digest = sha256()
    for path in sorted((SRC / "quaddisc").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a short prefix of every campaign (self-test smoke)")
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (CheckoutError, OSError, ValueError) as e:
        print(f"error: cannot benchmark this directory: {e}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(args.workload, args.seed, args.size, work)
        if args.trace:
            wanted = spec["per_layer"]
            values, detail = per_layer(run, [m["name"] for m in wanted], OUT_DIR)
        else:
            values, detail = end_to_end(run, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_ratio = run.failed / run.attempted
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "args": vars(args), "failed_ratio": failed_ratio,
         "result": result, "all_values": values, "detail": detail}, indent=1, default=str))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} ({run.failed}/{run.attempted} records)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
