"""Command-line surface for discriminator campaigns.

Records go to stdout (or --out FILE) as one JSON object per line; the summary
footer goes to stderr.  Exit status: 0 all expected outcomes held, 1 invalid
invocation, 2 a record contradicted its certified expectation (bug or genuine
counterexample), 3 a prime scan hit its ceiling, 4 I/O failure.
"""

import argparse
import os
import sys

from .tables import (COUNTEREXAMPLE_RESIDUE, EXIT_INVALID, EXIT_IO, PREDICTION_THRESHOLD,
                     THETA_ERROR_BOUND, WINDOW_THRESHOLD, serialize_record)

# Every command, in the order --help lists them, with its one-line help.  The
# options and work of all but tables are campaigns.COMMANDS's, which only a
# campaign command imports: tables, --help and usage errors run without it.
HELPS = {
    "verify-theorem11": "discriminator vs predicted progression prime",
    "verify-remark11": "bundled counterexample rows (expected mismatch)",
    "verify-theorem12": "d = 2, 3 sequences vs prime-or-prime-power targets",
    "verify-remark12": "8k(2k-/+1) sequences vs plain primes",
    "corollary11": "d = 4, 5 specializations with certified thresholds",
    "window-check": "prime in every coprime class inside the scan window",
    "conjecture": "run one conjecture checker over a range of n",
    "discriminator": "raw least modulus for a (A k^2 + B k)/2 sequence",
    "tables": "print the bundled constant tables, one JSON row per d",
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command, with options on the subparser of command alone."""
    spec = None
    if command in HELPS and command != "tables":
        # before any parser exists: importing either module after building one
        # raised peak RSS (runner is what run calls)
        from . import runner
        from .campaigns import COMMANDS, DEFAULT_SCAN_CEILING
        spec = COMMANDS[command]
    parser = argparse.ArgumentParser(
        prog="quaddisc",
        description="Least distinct-residue moduli of quadratic sequences, "
        "checked against first primes in arithmetic progressions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    s = {name: subs.add_parser(name, help=text) for name, text in HELPS.items()}.get(command)
    if spec is None:
        return parser
    options = s.add_mutually_exclusive_group(required=True) if spec.one_of else s
    for flag, kwargs in spec.options:
        options.add_argument(flag, **kwargs)
    if command == "discriminator":
        s.add_argument("--n", type=int, help="single n (alternative to --n-from/--n-to)")
    if spec.segments is None:  # the default work, one segment n_from..n_to
        s.add_argument("--n-from", type=int, required=command != "discriminator")
        s.add_argument("--n-to", type=int, required=command != "discriminator")
    s.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    s.add_argument("--resume", action="store_true",
                   help="skip keys already present in --out")
    s.add_argument("--parallelism", type=int, default=0, metavar="K",
                   help="at most K worker processes, and at most one per core in the "
                   "affinity mask: a larger K counts as the cores (default: the cores)")
    s.add_argument("--scan-ceiling", type=int, default=DEFAULT_SCAN_CEILING)
    s.add_argument("--no-timing", action="store_true",
                   help="zero the ms fields for byte-reproducible streams")
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the campaign that args describe; return its exit status."""
    from . import campaigns, runner
    cmd = args.command
    dests = (kwargs.get("dest", flag[2:]) for flag, kwargs in campaigns.COMMANDS[cmd].options)
    params = {dest: getattr(args, dest) for dest in dests}
    n_from, n_to = getattr(args, "n_from", 1), getattr(args, "n_to", 1)
    if cmd == "discriminator":
        if args.n is not None:
            if n_from is not None or n_to is not None:
                print("error: give either --n or --n-from/--n-to", file=sys.stderr)
                return EXIT_INVALID
            n_from = n_to = args.n
        elif n_from is None or n_to is None:
            print("error: discriminator needs --n or --n-from/--n-to", file=sys.stderr)
            return EXIT_INVALID
    return runner.run(campaigns.CampaignConfig(
        cmd, params, n_from, n_to, args.parallelism, args.out, args.resume, args.scan_ceiling,
        timing=not args.no_timing))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command argparse picks is the first argument that is no option, as no
    # top-level option takes a value: only its subparser needs options
    parser = _build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    if args.command != "tables":
        return run(args)
    try:
        for d in sorted(PREDICTION_THRESHOLD):
            print(serialize_record({
                "d": d,
                "prediction_threshold": PREDICTION_THRESHOLD[d],
                "counterexample_residue": COUNTEREXAMPLE_RESIDUE[d],
                "theta_error": THETA_ERROR_BOUND[d],
                "window_threshold": WINDOW_THRESHOLD[d],
            }))
        sys.stdout.flush()
    except OSError as e:
        print(f"error: write failed: {e}", file=sys.stderr)
        return EXIT_IO
    return 0


def entry() -> None:
    status = main()
    # what stdout failed to write may still be buffered: sent to the null
    # device, the exit's flush of it cannot fail again and exit 120
    if status == EXIT_IO:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
