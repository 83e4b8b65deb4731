#!/usr/bin/env bash
# Streams identical across parallelism: the same --no-timing records, summary
# and exit status at --parallelism 1 and 2, for fresh runs and for resumes of
# streams with deleted lines, one of them among another campaign's records,
# and of a window stream cut mid-line after its first half.
# Exits non-zero at the first difference.
#
# The CLI comes from $QUADDISC (default: quaddisc, as `pip install .` puts it
# on PATH); from a checkout without installing:
#
#   PYTHONPATH=$PWD/src QUADDISC="python -m quaddisc.cli" scripts/streams.sh
set -euo pipefail

quaddisc=${QUADDISC:-quaddisc}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A CLI that does not start fails every case below with a wrong exit status,
# which would hide the cause: check that it starts first.
$quaddisc tables > /dev/null || {
  echo "the CLI does not start: '$quaddisc tables' failed; install quaddisc or set" \
       "\$QUADDISC, e.g. QUADDISC=\"python -m quaddisc.cli\" with PYTHONPATH=\$PWD/src" >&2
  exit 1
}

# The exit status a campaign must give.
want() {
  case "$1" in
    "window-check --d 7"*) echo "exit 2" ;;
    *"--scan-ceiling "*) echo "exit 3" ;;
    *) echo "exit 0" ;;
  esac
}

# d = 7 exits 2: its window misses a class at n = 468..470, above the bundled
# threshold 333 (the known red of acceptance criterion 9).  The 3k+1 run under
# a scan ceiling of 50 exits 3, with error records, and so does the d = 5
# window check under a ceiling of 5000: the windows of n from 1802 on end past
# it, a cut that falls inside another chunk at each K.  verify-remark11 --all
# computes its first rows in the parent and then starts a pool at parallelism
# 2; the 3k-1 run to n = 1200 is a long cold-scan sweep, which does the same
# on a slower machine.  The d = 4 window check from n = 1 meets empty windows
# and 45 failures below its threshold 79, which each K cuts into other runs.
# The d = 4 window check over 24000..25000 has first(n) in (65521, 65535] for
# n = 24571..24575, past the last prime of sieve block 0: the walks of those
# windows start in sieve block 1, which is built from block 0's primes.  The
# d = 31 window check below its threshold 24334 misses a class at 12,837 of
# its n, which each K cuts into other failing runs, and the d = 2999 windows
# need more primes than two sieve blocks hold to meet all 2998 classes.
for args in "verify-theorem12 --case 3k+1 --n-from 4 --n-to 300" \
            "verify-theorem12 --case 3k-1 --n-from 4 --n-to 1200" \
            "verify-theorem12 --case 3k+1 --n-from 4 --n-to 100 --scan-ceiling 50" \
            "conjecture --id 1.2 --n-from 1 --n-to 150" \
            "conjecture --id 1.3 --form x^2+x+1 --variant squares --n-from 1 --n-to 200" \
            "verify-remark11 --all" \
            "conjecture --id 1.4 --n-from 3 --n-to 140" \
            "window-check --d 7 --n-from 300 --n-to 3000" \
            "window-check --d 5 --eps 1/100 --n-from 206 --n-to 2000" \
            "window-check --d 4 --n-from 1 --n-to 3000" \
            "window-check --d 4 --n-from 24000 --n-to 25000" \
            "window-check --d 31 --n-from 1 --n-to 24333" \
            "window-check --d 2999 --eps 200 --n-from 600 --n-to 1400" \
            "window-check --d 5 --n-from 200 --n-to 3000 --scan-ceiling 5000"; do
  for par in 1 2; do
    status=0
    $quaddisc $args --no-timing --parallelism $par > "$tmp/out$par.jsonl" \
      2> "$tmp/err$par.txt" || status=$?
    echo "exit $status" >> "$tmp/err$par.txt"
  done
  cmp "$tmp/out1.jsonl" "$tmp/out2.jsonl"
  cmp "$tmp/err1.txt" "$tmp/err2.txt"
  grep -qx "$(want "$args")" "$tmp/err1.txt" || { echo "$args: want $(want "$args")" >&2; exit 1; }
  echo "ok  $args ($(want "$args"))"
done

# Resumes after deleted lines: every 17th window record from the third, every
# 5th counterexample row, each keyed by its own d and c, every 7th Theorem 1.2
# record, whose least_m and predicted are integers, and every 11th conjecture
# 1.2 record, whose flags send its lines through the JSON parser, every 5th
# record of the run under a scan ceiling, whose error records do too, and every
# 4th conjecture 1.3 squares record, which takes the collision certificates of
# n = 7 and 79 and recomputes them, and every 5th conjecture 1.3 choose2 record,
# n = 3 among them, while n = 1, whose expected match is False for every
# variant, stays in the prior file and is counted from it, and every 9th
# conjecture 1.4 record, whose primes come from nth_primes.  Every 17th record
# of the d = 5 window check under a ceiling goes, error records among them.
# Every 13th d = 7 window record goes too, the failure at n = 328 among them,
# while the failures at 468..470 stay in the prior file and make the exit 2.
# The d = 5 window file from n = 206 also holds, after its first 100 lines,
# the d = 7 window records of n = 300..400, another campaign's records at
# some of its own n: the resume counts none of them and leaves them in place.
# The resumed file holds the fresh records (and those foreign lines), and its
# summary and exit status are the fresh ones.
for case in "window-check --d 5 --n-from 206 --n-to 3000|17|window-check --d 7 --n-from 300 --n-to 400" \
            "verify-remark11 --all|5" \
            "window-check --d 7 --n-from 300 --n-to 3000|13" \
            "verify-theorem12 --case 3k-1 --n-from 4 --n-to 400|7" \
            "conjecture --id 1.2 --n-from 1 --n-to 150|11" \
            "verify-theorem12 --case 3k+1 --n-from 4 --n-to 100 --scan-ceiling 50|5" \
            "conjecture --id 1.3 --form x^2+x+1 --variant squares --n-from 1 --n-to 200|4" \
            "conjecture --id 1.3 --form 4x^2+1 --variant choose2 --n-from 1 --n-to 100|5" \
            "conjecture --id 1.4 --n-from 3 --n-to 140|9" \
            "window-check --d 5 --n-from 200 --n-to 3000 --scan-ceiling 5000|17"; do
  IFS='|' read -r args every foreign <<< "$case"
  status=0
  $quaddisc $args --no-timing --parallelism 1 > "$tmp/full.jsonl" 2> "$tmp/full.txt" \
    || status=$?
  echo "exit $status" >> "$tmp/full.txt"
  awk -v every="$every" 'NR % every != 3 % every' "$tmp/full.jsonl" > "$tmp/holes.jsonl"
  cmp -s "$tmp/holes.jsonl" "$tmp/full.jsonl" && { echo "$args: no line deleted" >&2; exit 1; }
  : > "$tmp/foreign.jsonl"
  [ -z "$foreign" ] || $quaddisc $foreign --no-timing > "$tmp/foreign.jsonl" 2> /dev/null
  { head -n 100 "$tmp/holes.jsonl"; cat "$tmp/foreign.jsonl"; tail -n +101 "$tmp/holes.jsonl"; } \
    > "$tmp/prior.jsonl"
  for par in 1 2; do
    cp "$tmp/prior.jsonl" "$tmp/resumed$par.jsonl"
    status=0
    $quaddisc $args --no-timing --parallelism $par --out "$tmp/resumed$par.jsonl" --resume \
      2> "$tmp/err$par.txt" || status=$?
    echo "exit $status" >> "$tmp/err$par.txt"
  done
  cmp "$tmp/resumed1.jsonl" "$tmp/resumed2.jsonl"
  cmp "$tmp/err1.txt" "$tmp/err2.txt"
  cmp "$tmp/full.txt" "$tmp/err1.txt"
  cmp <(sort "$tmp/full.jsonl" "$tmp/foreign.jsonl") <(sort "$tmp/resumed1.jsonl")
  grep -qx "$(want "$args")" "$tmp/full.txt" || { echo "$args: want $(want "$args")" >&2; exit 1; }
  echo "ok  $args --resume ($(($(wc -l < "$tmp/full.jsonl") - $(wc -l < "$tmp/holes.jsonl"))) deleted," \
       "$(wc -l < "$tmp/foreign.jsonl") foreign)"
done

# A window resume whose prior lost its second half, cut mid-line, without and
# with every 13th line of its first half deleted too.  The cut tail is warned
# about and truncated; what is left to compute is the deleted n, in order,
# then the second half, one range when nothing else is missing.  At each K the
# resumed file is byte for byte the prior without its cut line, followed by
# the fresh records it lacks: the fresh file itself when only the tail was cut.
args="window-check --d 4 --n-from 1 --n-to 20000"
$quaddisc $args --no-timing --parallelism 1 > "$tmp/full.jsonl" 2> "$tmp/full.txt"
for every in 0 13; do
  awk -v every="$every" 'NR <= 10000 && (every == 0 || NR % every)' "$tmp/full.jsonl" \
    > "$tmp/kept.jsonl"
  awk -v every="$every" 'NR > 10000 || (every && NR % every == 0)' "$tmp/full.jsonl" \
    > "$tmp/lost.jsonl"
  { cat "$tmp/kept.jsonl"; sed -n 10001p "$tmp/full.jsonl" | head -c 40; } > "$tmp/prior.jsonl"
  for par in 1 2; do
    cp "$tmp/prior.jsonl" "$tmp/resumed.jsonl"
    $quaddisc $args --no-timing --parallelism $par --out "$tmp/resumed.jsonl" --resume \
      2> "$tmp/err$par.txt"
    mv "$tmp/resumed.jsonl" "$tmp/resumed$par.jsonl"
  done
  cmp "$tmp/err1.txt" "$tmp/err2.txt"
  cmp "$tmp/resumed1.jsonl" "$tmp/resumed2.jsonl"
  cmp <(cat "$tmp/kept.jsonl" "$tmp/lost.jsonl") "$tmp/resumed1.jsonl"
  [ "$every" != 0 ] || cmp "$tmp/full.jsonl" "$tmp/resumed1.jsonl"
  grep -qx "warning: skipping corrupt record at $tmp/resumed.jsonl:$(($(wc -l < "$tmp/kept.jsonl") + 1))" \
    "$tmp/err1.txt"
  cmp "$tmp/full.txt" <(grep -v '^warning: ' "$tmp/err1.txt")
  echo "ok  $args --resume (second half cut mid-line, $(($(wc -l < "$tmp/lost.jsonl") - 10000))" \
       "deleted before it)"
done
