"""Record the golden streams and exit codes from the program in this checkout.

    python3 perfbench/make_golden.py

Run it only on a commit whose records are trusted; every later run of the
benchmark is judged against what it writes.  It takes a few minutes.
"""

from __future__ import annotations

import json
import lzma
import os
import sys
import tempfile
from pathlib import Path

from golden import EXIT_CODES, GOLDEN_DIR, stream_path
from proc import require_program, run_cli
from workloads import SIZES, all_campaigns


def main() -> int:
    require_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    parallelism = str(len(os.sched_getaffinity(0)))
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.jsonl"
        for size in SIZES:
            for c in all_campaigns(size):
                if c.exit_key in codes:  # a size that shares this campaign recorded it
                    continue
                args = [*c.args, "--no-timing", "--parallelism", parallelism, "--out", str(out)]
                res = run_cli(args)
                codes[c.exit_key] = res.code
                if size == "golden":
                    with lzma.open(stream_path(c.stream), "wb", preset=9) as fh:
                        fh.write(out.read_bytes())
                print(f"{c.exit_key}: exit {res.code}, {res.wall_s:.1f} s", file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
