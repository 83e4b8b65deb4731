#!/usr/bin/env bash
# Streams identical across parallelism: the same --no-timing records, summary
# and exit status at --parallelism 1 and 2, for fresh runs and for resumes of
# streams with deleted lines, one of them among another campaign's records
# and a record torn mid-line, and of a window stream cut mid-line after its
# first half.
# Exits non-zero at the first difference.
#
# The CLI comes from $QUADDISC (default: quaddisc, as `pip install .` puts it
# on PATH); from a checkout without installing:
#
#   PYTHONPATH=$PWD/src QUADDISC="python -m quaddisc.cli" scripts/streams.sh
#
# With --against REV it also runs the same corpus on the source of REV, checked
# out with `git worktree add --detach` into a temporary directory that is
# removed on exit, and compares the two trees: stdout bytes, stderr bytes,
# exit codes and resumed files, at K = 1 and 2, fresh and resumed, and those
# of the command-line surface: helps and usage errors.  Both trees run from
# source, as `PYTHONPATH=<tree>/src python -m quaddisc.cli`; it
# prints every difference and exits non-zero if there is any, before the
# checks within this tree run.
#
#   scripts/streams.sh --against HEAD~1
set -euo pipefail

against=
case "${1:-}" in
  --against) against=${2:?usage: scripts/streams.sh [--against REV]} ;;
  "") ;;
  *) echo "usage: scripts/streams.sh [--against REV]" >&2; exit 1 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
  [ ! -d "$tmp/tree" ] || git -C "$root" worktree remove --force "$tmp/tree" || true
  rm -rf "$tmp"
}
trap cleanup EXIT

if [ -n "$against" ]; then
  git -C "$root" worktree add --quiet --detach "$tmp/tree" "$against"
  quaddisc="env PYTHONPATH=$root/src python -m quaddisc.cli"
  base="env PYTHONPATH=$tmp/tree/src python -m quaddisc.cli"
else
  quaddisc=${QUADDISC:-quaddisc}
fi

# A CLI that does not start fails every case below with a wrong exit status,
# which would hide the cause: check that it starts first.
for cli in "$quaddisc" ${base:+"$base"}; do
  $cli tables > /dev/null || {
    echo "the CLI does not start: '$cli tables' failed; install quaddisc or set" \
         "\$QUADDISC, e.g. QUADDISC=\"python -m quaddisc.cli\" with PYTHONPATH=\$PWD/src" >&2
    exit 1
  }
done

# Command-line prefixes whose output the change under test alters on purpose.
# --against does not run an allowed line on REV unless REV's own corpus runs
# it too; then it runs it, lets it differ, and warns when it does not, since
# the entry is stale once REV gives the same output.
allowed=()

is_allowed() {
  local prefix
  for prefix in "${allowed[@]}"; do
    [[ "$1 " != "$prefix"* ]] || return 0
  done
  return 1
}

# Whether --against skips command line $1 on REV: it is allowed, and REV's
# corpus does not hold it, quoted as in the arrays below.
skip_on_base() {
  is_allowed "$1" && ! grep -qsF "\"$1\"" "$tmp/tree/scripts/streams.sh"
}

# The exit status a campaign must give.
want() {
  case "$1" in
    "window-check --d 7"*) echo "exit 2" ;;
    *"--scan-ceiling "*) echo "exit 3" ;;
    *"--variant cubes"* | "verify-theorem11 --d 2305843009213693951 "* | \
      "verify-remark11 --d 37" | "window-check --d 1048576 "* | \
      *"--n-from 6 --n-to 5") echo "exit 1" ;;
    *) echo "exit 0" ;;
  esac
}

# Fails unless the stderr file $2 of command line $1 ends in the exit status
# the command must give.
exits_as() {
  grep -qx "$(want "$1")" "$2" || { echo "$1: want $(want "$1") in $2" >&2; exit 1; }
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
# need more primes than two sieve blocks hold to meet all 2998 classes.  The
# conjecture 1.4 run over n = 390..400 starts with a cold observed scan in the
# thousands, where the other 1.4 runs sweep warm from n = 3.  Then
# one run of each other command and conjecture, across its certified start
# where it has one, and windows above a threshold and with a wide eps.  The
# 4x^2+1 squares run writes collision certificates at n = 3, 9, 19, 51, 99 and
# 129 and a smaller-modulus one at n = 1, besides the x^2+x+1 squares ones.  An
# unknown --variant exits 1 with argparse's usage, and so do a d outside the
# bundled rows, an empty range and a d from 2^32 on; 4294967291, the largest
# prime below 2^32, runs.  A window check exits 1 for a d from 2^20 on.
fresh=("verify-theorem12 --case 3k+1 --n-from 4 --n-to 300"
       "verify-theorem12 --case 3k-1 --n-from 4 --n-to 1200"
       "verify-theorem12 --case 3k+1 --n-from 4 --n-to 100 --scan-ceiling 50"
       "conjecture --id 1.2 --n-from 1 --n-to 150"
       "conjecture --id 1.3 --form x^2+x+1 --variant squares --n-from 1 --n-to 200"
       "verify-remark11 --all"
       "conjecture --id 1.4 --n-from 3 --n-to 140"
       "conjecture --id 1.4 --n-from 390 --n-to 400"
       "window-check --d 7 --n-from 300 --n-to 3000"
       "window-check --d 5 --eps 1/100 --n-from 206 --n-to 2000"
       "window-check --d 4 --n-from 1 --n-to 3000"
       "window-check --d 4 --n-from 24000 --n-to 25000"
       "window-check --d 31 --n-from 1 --n-to 24333"
       "window-check --d 2999 --eps 200 --n-from 600 --n-to 1400"
       "window-check --d 5 --n-from 200 --n-to 3000 --scan-ceiling 5000"
       "verify-theorem11 --d 4 --c 1 --n-from 1 --n-to 300"
       "verify-theorem11 --d 30 --c 7 --n-from 150 --n-to 400"
       "verify-theorem12 --case 3k-1 --n-from 4 --n-to 700"
       "verify-theorem12 --case 2k+1 --n-from 1 --n-to 400"
       "verify-remark12 --sign minus --n-from 1 --n-to 300"
       "corollary11 --d 5 --r -1 --n-from 1 --n-to 300"
       "conjecture --id 1.1 --d 2 --n-from 1 --n-to 100"
       "conjecture --id 1.3 --form 4x^2+1 --variant choose2 --n-from 1 --n-to 100"
       "conjecture --id 1.3 --form 4x^2+1 --variant squares --n-from 1 --n-to 130"
       "conjecture --id 1.3 --form x^2+x+1 --variant cubes --n-from 1 --n-to 3"
       "discriminator --A 32 --B -8 --n-from 1 --n-to 300"
       "verify-theorem11 --d 2305843009213693951 --c 1 --n-from 1 --n-to 1"
       "verify-theorem11 --d 4294967291 --c 1 --n-from 1 --n-to 3"
       "window-check --d 31 --n-from 24334 --n-to 30000"
       "window-check --d 36 --eps 3/2 --n-from 1 --n-to 20000"
       "verify-remark11 --d 37"
       "verify-theorem11 --d 4 --c 1 --n-from 6 --n-to 5"
       "window-check --d 1048576 --n-from 1 --n-to 1")

# The command-line surface, which --against compares byte for byte as given,
# without --no-timing and --parallelism: the top-level help and its usage
# errors, with no argument at all, an unknown command and an unknown option
# before a command, every command's help, tables and an option it lacks, and a
# campaign without its required flags or, for a discriminator, without any n.
surface=("--help" "-h" "" "bogus" "tables" "tables --bogus"
         "verify-theorem11 --help" "verify-remark11 --help" "verify-theorem12 --help"
         "verify-remark12 --help" "corollary11 --help" "window-check --help"
         "conjecture --help" "discriminator --help" "tables --help"
         "window-check --d 5"
         "--bogus window-check --d 5 --n-from 206 --n-to 208"
         "discriminator --A 32 --B -8")

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
# a record torn mid-line and then the d = 7 window records of n = 300..400,
# another campaign's records at some of its own n: the resume warns about the
# torn line and skips it, counts none of the d = 7 records, and leaves all of
# them in place.
# Every 7th Theorem 1.1 record goes, and every 6th discriminator record.
# The resumed file holds the fresh records (and those foreign and corrupt
# lines), and its summary and exit status are the fresh ones.  An entry is
# the command line|every|the foreign campaign|the corrupt line, the last two
# optional.
torn='{"cmd":"window-check","d":5,"n":'
resumes=("window-check --d 5 --n-from 206 --n-to 3000|17|window-check --d 7 --n-from 300 --n-to 400|$torn"
         "verify-remark11 --all|5"
         "window-check --d 7 --n-from 300 --n-to 3000|13"
         "verify-theorem12 --case 3k-1 --n-from 4 --n-to 400|7"
         "conjecture --id 1.2 --n-from 1 --n-to 150|11"
         "verify-theorem12 --case 3k+1 --n-from 4 --n-to 100 --scan-ceiling 50|5"
         "conjecture --id 1.3 --form x^2+x+1 --variant squares --n-from 1 --n-to 200|4"
         "conjecture --id 1.3 --form 4x^2+1 --variant choose2 --n-from 1 --n-to 100|5"
         "conjecture --id 1.4 --n-from 3 --n-to 140|9"
         "window-check --d 5 --n-from 200 --n-to 3000 --scan-ceiling 5000|17"
         "verify-theorem11 --d 4 --c 1 --n-from 1 --n-to 300|7"
         "discriminator --A 32 --B -8 --n-from 1 --n-to 300|6")

# A window resume whose prior lost its second half, cut mid-line, without and
# with every 13th line of its first half deleted too.  The cut tail is warned
# about and truncated; what is left to compute is the deleted n, in order,
# then the second half, one range when nothing else is missing.  At each K the
# resumed file is byte for byte the prior without its cut line, followed by
# the fresh records it lacks: the fresh file itself when only the tail was cut.
cut="window-check --d 4 --n-from 1 --n-to 20000"

# Runs the command after $1 with its stderr in file $1, then its exit status.
errs_to() {
  local err=$1 status=0
  shift
  "$@" 2> "$err" || status=$?
  echo "exit $status" >> "$err"
}

# Every run of the corpus on one CLI, into files of directory $2: stdout in
# .out and the resumed files in .jsonl, each with its stderr in .err ending in
# its exit status.  A resume runs on $tmp/resumed.jsonl, the path its warnings
# name, in either tree.  $3 = base skips the lines skip_on_base names.
record() {
  local cli=$1 dir=$2 side=${3:-} i par args every foreign corrupt
  mkdir -p "$dir"
  for i in "${!fresh[@]}"; do
    args=${fresh[$i]}
    [ "$side" != base ] || ! skip_on_base "$args" || continue
    for par in 1 2; do
      errs_to "$dir/fresh$i.$par.err" $cli $args --no-timing --parallelism $par \
        > "$dir/fresh$i.$par.out"
    done
  done
  for i in "${!resumes[@]}"; do
    IFS='|' read -r args every foreign corrupt <<< "${resumes[$i]}"
    errs_to "$dir/full$i.err" $cli $args --no-timing --parallelism 1 > "$dir/full$i.out"
    awk -v every="$every" 'NR % every != 3 % every' "$dir/full$i.out" > "$dir/holes$i.out"
    : > "$dir/foreign$i.out"
    [ -z "$foreign" ] || $cli $foreign --no-timing > "$dir/foreign$i.out" 2> /dev/null
    : > "$dir/corrupt$i.out"
    [ -z "$corrupt" ] || echo "$corrupt" > "$dir/corrupt$i.out"
    { head -n 100 "$dir/holes$i.out"; cat "$dir/corrupt$i.out" "$dir/foreign$i.out"
      tail -n +101 "$dir/holes$i.out"; } > "$dir/prior$i.out"
    for par in 1 2; do
      cp "$dir/prior$i.out" "$tmp/resumed.jsonl"
      errs_to "$dir/resumed$i.$par.err" \
        $cli $args --no-timing --parallelism $par --out "$tmp/resumed.jsonl" --resume
      mv "$tmp/resumed.jsonl" "$dir/resumed$i.$par.jsonl"
    done
  done
  [ -z "$against" ] || for i in "${!surface[@]}"; do
    errs_to "$dir/surface$i.err" $cli ${surface[$i]} > "$dir/surface$i.out"
  done
  errs_to "$dir/cut.err" $cli $cut --no-timing --parallelism 1 > "$dir/cut.out"
  for every in 0 13; do
    awk -v every="$every" 'NR <= 10000 && (every == 0 || NR % every)' "$dir/cut.out" \
      > "$dir/kept$every.out"
    awk -v every="$every" 'NR > 10000 || (every && NR % every == 0)' "$dir/cut.out" \
      > "$dir/lost$every.out"
    { cat "$dir/kept$every.out"; sed -n 10001p "$dir/cut.out" | head -c 40; } \
      > "$dir/cutprior$every.out"
    for par in 1 2; do
      cp "$dir/cutprior$every.out" "$tmp/resumed.jsonl"
      errs_to "$dir/cut$every.$par.err" \
        $cli $cut --no-timing --parallelism $par --out "$tmp/resumed.jsonl" --resume
      mv "$tmp/resumed.jsonl" "$dir/cut$every.$par.jsonl"
    done
  done
}

# --against: each of the files after the command line $1 that differs between
# this tree's run and REV's, with the command line and the first lines of the
# difference, counted in $diffs.
diffs=0
compare() {
  local args=$1 file
  shift
  for file; do
    cmp -s "$tmp/rev/$file" "$tmp/head/$file" && continue
    diffs=$((diffs + 1))
    echo "DIFF $file: $args" >&2
    diff "$tmp/rev/$file" "$tmp/head/$file" | head -n 20 >&2 || true
  done
}

record "$quaddisc" "$tmp/head"
if [ -n "$against" ]; then
  record "$base" "$tmp/rev" base
  for i in "${!fresh[@]}"; do
    args=${fresh[$i]}
    if skip_on_base "$args"; then
      echo "allowed  $args (not run on $against)"
    elif is_allowed "$args"; then
      same=$diffs
      compare "$args" "fresh$i."{1,2}.{out,err}
      if [ "$diffs" = "$same" ]; then
        echo "warning: '$args' gives the same output on $against; drop its allowed entry" >&2
      else
        diffs=$same
        echo "allowed  $args (differs from $against)"
      fi
    else
      compare "$args" "fresh$i."{1,2}.{out,err}
    fi
  done
  for i in "${!resumes[@]}"; do
    IFS='|' read -r args every _ <<< "${resumes[$i]}"
    compare "$args --resume (every=$every)" "full$i".{out,err} \
      "resumed$i."{1,2}.{jsonl,err}
  done
  for i in "${!surface[@]}"; do
    compare "quaddisc ${surface[$i]}" "surface$i".{out,err}
  done
  compare "$cut" cut.{out,err}
  for every in 0 13; do
    compare "$cut --resume (cut tail, every=$every)" "cut$every."{1,2}.{jsonl,err}
  done
  [ "$diffs" = 0 ] || { echo "$diffs files differ from $against" >&2; exit 1; }
  echo "ok  identical to $against"
fi

# The checks within this tree.
d=$tmp/head
for i in "${!fresh[@]}"; do
  args=${fresh[$i]}
  cmp "$d/fresh$i.1.out" "$d/fresh$i.2.out"
  cmp "$d/fresh$i.1.err" "$d/fresh$i.2.err"
  exits_as "$args" "$d/fresh$i.1.err"
  echo "ok  $args ($(want "$args"))"
done

for i in "${!resumes[@]}"; do
  IFS='|' read -r args every foreign corrupt <<< "${resumes[$i]}"
  cmp -s "$d/holes$i.out" "$d/full$i.out" && { echo "$args: no line deleted" >&2; exit 1; }
  cmp "$d/resumed$i.1.jsonl" "$d/resumed$i.2.jsonl"
  cmp "$d/resumed$i.1.err" "$d/resumed$i.2.err"
  if [ -n "$corrupt" ]; then
    at=$(($(head -n 100 "$d/holes$i.out" | wc -l) + 1))
    grep -qxF "warning: skipping corrupt record at $tmp/resumed.jsonl:$at" "$d/resumed$i.1.err" ||
      { echo "$args --resume: no warning for the corrupt line $at" >&2; exit 1; }
    cmp "$d/full$i.err" <(grep -v '^warning: ' "$d/resumed$i.1.err")
  else
    cmp "$d/full$i.err" "$d/resumed$i.1.err"
  fi
  cmp <(sort "$d/full$i.out" "$d/foreign$i.out" "$d/corrupt$i.out") <(sort "$d/resumed$i.1.jsonl")
  exits_as "$args" "$d/full$i.err"
  echo "ok  $args --resume ($(($(wc -l < "$d/full$i.out") - $(wc -l < "$d/holes$i.out"))) deleted," \
       "$(wc -l < "$d/foreign$i.out") foreign, $(wc -l < "$d/corrupt$i.out") corrupt)"
done

exits_as "$cut" "$d/cut.err"
for every in 0 13; do
  exits_as "$cut" "$d/cut$every.1.err"
  exits_as "$cut" "$d/cut$every.2.err"
  cmp "$d/cut$every.1.err" "$d/cut$every.2.err"
  cmp "$d/cut$every.1.jsonl" "$d/cut$every.2.jsonl"
  cmp <(cat "$d/kept$every.out" "$d/lost$every.out") "$d/cut$every.1.jsonl"
  [ "$every" != 0 ] || cmp "$d/cut.out" "$d/cut$every.1.jsonl"
  grep -qx "warning: skipping corrupt record at $tmp/resumed.jsonl:$(($(wc -l < "$d/kept$every.out") + 1))" \
    "$d/cut$every.1.err"
  cmp "$d/cut.err" <(grep -v '^warning: ' "$d/cut$every.1.err")
  echo "ok  $cut --resume (second half cut mid-line, $(($(wc -l < "$d/lost$every.out") - 10000))" \
       "deleted before it)"
done
