"""Command-line surface for discriminator campaigns.

Records go to stdout (or --out FILE) as one JSON object per line; the summary
footer goes to stderr.  Exit status: 0 all expected outcomes held, 1 invalid
invocation, 2 a record contradicted its certified expectation (bug or genuine
counterexample), 3 a prime scan hit its ceiling, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .campaigns import COMMANDS, EXIT_INVALID, EXIT_IO, CampaignConfig, run, serialize_record
from .ntcore import DEFAULT_SCAN_CEILING
from .verifier import (
    COUNTEREXAMPLE_RESIDUE, PREDICTION_THRESHOLD, THETA_ERROR_BOUND, WINDOW_THRESHOLD,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quaddisc",
        description="Least distinct-residue moduli of quadratic sequences, "
        "checked against first primes in arithmetic progressions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        s = subs.add_parser(name, help=spec.help)
        options = s.add_mutually_exclusive_group(required=True) if spec.one_of else s
        for flag, kwargs in spec.options:
            options.add_argument(flag, **kwargs)
        if name == "discriminator":
            s.add_argument("--n", type=int, help="single n (alternative to --n-from/--n-to)")
        if spec.segments is None:  # the default work, one segment n_from..n_to
            s.add_argument("--n-from", type=int, required=name != "discriminator")
            s.add_argument("--n-to", type=int, required=name != "discriminator")
        s.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        s.add_argument("--resume", action="store_true",
                       help="skip keys already present in --out")
        s.add_argument("--parallelism", type=int, default=0, metavar="K",
                       help="at most K worker processes, and at most one per core in the "
                       "affinity mask: a larger K counts as the cores (default: the cores)")
        s.add_argument("--scan-ceiling", type=int, default=DEFAULT_SCAN_CEILING)
        s.add_argument("--no-timing", action="store_true",
                       help="zero the ms fields for byte-reproducible streams")

    subs.add_parser("tables", help="print the bundled constant tables, one JSON row per d")
    return parser


def _config_from(args: argparse.Namespace) -> CampaignConfig | None:
    cmd = args.command
    dests = (kwargs.get("dest", flag[2:]) for flag, kwargs in COMMANDS[cmd].options)
    params = {dest: getattr(args, dest) for dest in dests}
    n_from, n_to = getattr(args, "n_from", 1), getattr(args, "n_to", 1)
    if cmd == "discriminator":
        if args.n is not None:
            if n_from is not None or n_to is not None:
                print("error: give either --n or --n-from/--n-to", file=sys.stderr)
                return None
            n_from = n_to = args.n
        elif n_from is None or n_to is None:
            print("error: discriminator needs --n or --n-from/--n-to", file=sys.stderr)
            return None
    return CampaignConfig(
        command=cmd,
        params=params,
        n_from=n_from,
        n_to=n_to,
        parallelism=args.parallelism,
        output=args.out,
        resume=args.resume,
        scan_ceiling=args.scan_ceiling,
        timing=not args.no_timing,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    if args.command == "tables":
        try:
            for d in sorted(PREDICTION_THRESHOLD):
                row = {
                    "d": d,
                    "prediction_threshold": PREDICTION_THRESHOLD[d],
                    "counterexample_residue": COUNTEREXAMPLE_RESIDUE[d],
                    "theta_error": THETA_ERROR_BOUND[d],
                    "window_threshold": WINDOW_THRESHOLD[d],
                }
                print(serialize_record(row))
            sys.stdout.flush()
        except OSError as e:
            print(f"error: write failed: {e}", file=sys.stderr)
            return EXIT_IO
        return 0
    config = _config_from(args)
    if config is None:
        return EXIT_INVALID
    return run(config)


def entry() -> None:
    status = main()
    # what stdout failed to write may still be buffered: sent to the null
    # device, the exit's flush of it cannot fail again and exit 120
    if status == EXIT_IO:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
