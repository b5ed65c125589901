#!/usr/bin/env bash
# identity.sh BASE: check that cogbench and cogsim built from the working
# tree print the same bytes as the ones built from revision BASE.
#
# Both CLIs are built twice, from an export of BASE in a temporary directory
# and from the working tree, and each pair runs this matrix:
#
#   cogbench -quick -check
#   cogbench -exp E20,E26,E27,E30 -trace FILE      (tables and JSONL trace)
#   cogbench -exp E29 -quick -sparse -check
#   cogsim -protocol cogcomp -n 2000 -check -trace FILE
#   cogsim -protocol cogcomp -n 2000 -sparse -check -trace FILE
#   cogsim -protocol session -n 2000 -c 16 -k 4 -C 48 -check
#   cogsim -protocol session -n 2000 -c 16 -k 4 -C 48 -sparse -check
#   cogsim -protocol cogcomp -n 10000 -c 16 -k 4 -C 48 -sparse
#   cogsim -protocol cogcast -n 2000 -c 16 -k 4 -C 48 -check -trace FILE
#   cogsim -protocol cogcast -jam random -jamk 3 -n 256 -c 16 -check -trace FILE
#   cogsim -protocol cogcast -adversary busiest -energy 120 -n 256 -c 12 -check -trace FILE
#   cogsim -protocol cogcomp -recover -adversary crasher -energy 60 -n 48 -check -trace FILE
#   cogsim run scenarios/*.yaml                     (each side's own library)
#
# The four cogcast and adversary rows trace through the crn package's run
# plumbing: a plain broadcast, a jammed one (jam events), one against a
# reactive jammer (adv and jam events) and a recovered aggregation against
# a crash adversary (fault, restart and adv events).
#
# Only the wall-clock lines "[E… finished in …]" and the "trace: wrote
# <path>" line are stripped before cmp. The exit status is non-zero if any
# output differs. Run it as `make identity BASE=<rev>`; it is not part of
# `make check`, because some changes alter output bytes on purpose.
set -euo pipefail

base=${1:?usage: identity.sh BASE}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/base" "$tmp/new"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
for side in base new; do
	src=$root
	[ "$side" = base ] && src=$tmp/src
	(cd "$src" && go build -o "$tmp/$side/" ./cmd/cogbench ./cmd/cogsim)
done

for side in base new; do
	d=$tmp/$side
	src=$root
	[ "$side" = base ] && src=$tmp/src
	echo "running $side" >&2
	"$d/cogbench" -quick -check >"$d/quick.txt"
	"$d/cogbench" -exp E20,E26,E27,E30 -trace "$d/exp.jsonl" >"$d/exp.txt"
	"$d/cogbench" -exp E29 -quick -sparse -check >"$d/e29.txt"
	"$d/cogsim" -protocol cogcomp -n 2000 -check -trace "$d/sim-dense.jsonl" >"$d/sim-dense.txt"
	"$d/cogsim" -protocol cogcomp -n 2000 -sparse -check -trace "$d/sim.jsonl" >"$d/sim.txt"
	"$d/cogsim" -protocol session -n 2000 -c 16 -k 4 -C 48 -check >"$d/session-dense.txt"
	"$d/cogsim" -protocol session -n 2000 -c 16 -k 4 -C 48 -sparse -check >"$d/session.txt"
	"$d/cogsim" -protocol cogcomp -n 10000 -c 16 -k 4 -C 48 -sparse >"$d/census.txt"
	"$d/cogsim" -protocol cogcast -n 2000 -c 16 -k 4 -C 48 -check -trace "$d/cast.jsonl" >"$d/cast.txt"
	"$d/cogsim" -protocol cogcast -jam random -jamk 3 -n 256 -c 16 -check -trace "$d/jam.jsonl" >"$d/jam.txt"
	"$d/cogsim" -protocol cogcast -adversary busiest -energy 120 -n 256 -c 12 -check -trace "$d/adv.jsonl" >"$d/adv.txt"
	"$d/cogsim" -protocol cogcomp -recover -adversary crasher -energy 60 -n 48 -check -trace "$d/crash.jsonl" >"$d/crash.txt"
	(cd "$src" && "$d/cogsim" run scenarios/*.yaml) >"$d/scenarios.txt"
done

strip() { grep -v -e '^\[E[0-9]* finished in .*\]$' -e '^trace: wrote ' "$1" || true; }
status=0
for f in quick.txt exp.txt exp.jsonl e29.txt sim-dense.txt sim-dense.jsonl sim.txt sim.jsonl session-dense.txt session.txt census.txt cast.txt cast.jsonl jam.txt jam.jsonl adv.txt adv.jsonl crash.txt crash.jsonl scenarios.txt; do
	if cmp -s <(strip "$tmp/base/$f") <(strip "$tmp/new/$f"); then
		echo "same    $f"
	else
		echo "DIFFERS $f"
		status=1
	fi
done
exit $status
