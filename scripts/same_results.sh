#!/usr/bin/env bash
# Check that the working tree's simulator gives exactly the results of
# a base revision: the acceptance check of a change that must not move
# any cycle, verdict or cache key.
#
#   scripts/same_results.sh <rev>
#
# Builds sbsim (Release) twice: <rev>, exported with `git archive` into
# a temporary directory under $TMPDIR, and the working tree, in build/.
# Then runs the same commands with both binaries, each in a fresh
# directory:
#
#   sbsim all --no-cache --json
#   sbsim verify --json                       (declared contracts)
#   sbsim verify --contract constant-time --json
#   sbsim verify --mitigation slh|fence|retpoline --json
#   sbsim fuzz --programs 200 --json
#
# and requires every SBSIM_*.json to be byte-identical, the exit codes
# to match, and the printed reports to match apart from their
# `wall-clock:` lines. Last, a result cache filled by <rev>'s
# `sbsim all` must serve the working tree's `sbsim all` in full
# (`cells simulated: 0`, identical dumps). Exits nonzero at the first
# difference and leaves the two run directories for inspection.
#
# SB_JOBS bounds sbsim's worker threads. A run takes about a minute
# on a 4-vCPU host at SB_JOBS=4, both builds included.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
cd "$(dirname "$0")/.."
repo=$(pwd)
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "same_results: unknown revision '$rev'" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/same_results.XXXXXX")
keep=0
cleanup() { [ "$keep" = 1 ] || rm -rf "$work"; }
trap cleanup EXIT

build() { # <source dir> <build dir>
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > /dev/null
    cmake --build "$2" -j "$(nproc)" --target sbsim > /dev/null
}

echo "same_results: building $rev in $work/base"
mkdir "$work/base"
git archive "$rev" | tar -x -C "$work/base"
build "$work/base" "$work/base/build"
echo "same_results: building the working tree in build/"
build "$repo" "$repo/build"
base_sbsim=$work/base/build/sbsim
head_sbsim=$repo/build/sbsim

fail() {
    keep=1
    echo "same_results: FAIL: $*" >&2
    echo "same_results: run directories kept in $work" >&2
    exit 1
}

# run <name> <sbsim args...>: run both binaries in fresh directories
# and compare exit codes, JSON dumps and reports.
run() {
    local name=$1
    shift
    local side bin status
    for side in base head; do
        bin=$base_sbsim
        [ "$side" = head ] && bin=$head_sbsim
        mkdir -p "$work/$side-$name"
        status=0
        (cd "$work/$side-$name" && "$bin" "$@" > report.txt 2>&1) \
            || status=$?
        echo "$status" > "$work/$side-$name/status"
        grep -v '^wall-clock:' "$work/$side-$name/report.txt" \
            > "$work/$side-$name/report.cmp" || true
    done
    local b=$work/base-$name h=$work/head-$name
    cmp -s "$b/status" "$h/status" \
        || fail "$name: exit code $(cat "$b/status") at $rev," \
                "$(cat "$h/status") in the working tree"
    diff -u "$b/report.cmp" "$h/report.cmp" > "$work/$name.diff" \
        || fail "$name: reports differ (see $work/$name.diff)"
    local dumps
    dumps=$( (cd "$b" && ls SBSIM_*.json 2>/dev/null) || true)
    [ -n "$dumps" ] || fail "$name: $rev wrote no SBSIM_*.json"
    [ "$dumps" = "$( (cd "$h" && ls SBSIM_*.json 2>/dev/null) || true)" ] \
        || fail "$name: the two trees wrote different dump files"
    local f
    for f in $dumps; do
        cmp -s "$b/$f" "$h/$f" || fail "$name: $f differs"
    done
    echo "same_results: $name identical ($(echo "$dumps" | wc -l) dump(s)," \
         "exit $(cat "$b/status"))"
}

run all all --no-cache --json
run verify verify --no-cache --json
run verify-ct verify --no-cache --contract constant-time --json
for m in slh fence retpoline; do
    run "verify-$m" verify --no-cache --mitigation "$m" --json
done
run fuzz fuzz --no-cache --programs 200 --json

# A cache filled at <rev> must serve the working tree in full.
cache=$work/cache
mkdir "$work/fill" "$work/served"
(cd "$work/fill" && "$base_sbsim" all --cache-dir "$cache" --json \
    > report.txt 2>&1) || true
(cd "$work/served" && "$head_sbsim" all --cache-dir "$cache" --json \
    > report.txt 2>&1) || true
grep -q '^cells simulated: *0$' "$work/served/report.txt" \
    || fail "cache: the working tree re-simulated cells a $rev cache" \
            "holds ($(grep '^cells simulated' "$work/served/report.txt"))"
for f in $(cd "$work/fill" && ls SBSIM_*.json); do
    cmp -s "$work/fill/$f" "$work/served/$f" \
        || fail "cache: $f served from the $rev cache differs"
done
echo "same_results: a $rev cache serves sbsim all with 0 cells simulated"
echo "same_results: PASS: the working tree matches $rev"
