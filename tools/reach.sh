#!/bin/sh
# reach.sh lists the production functions that no production entry
# point enters and checks the list against tools/reach.allow.
#
# It builds cmd/cuttlesys and bench with -cover -coverpkg=./..., runs
# every entry point at smoke scale, then reads `go tool covdata func`.
# The entry points are the six reports, the sixteen paper rows, sim
# under every policy its help lists, list, validate, and describe and
# run on every library spec. It also runs a traced obs report with
# every artifact, the three trace modes, lint in both output modes, the
# bench smoke with its spans, compare and contract modes, and the root
# package's Example functions.
#
# A function with no statements is never counted. The check fails on
# an unreached function the allowlist does not name, and on an
# allowlist entry that is reached or gone. A host-dependent kernel is
# stale only when gone: another host reaches it. Each allowlist line is
# `file:func  # class`.
#
# Usage, from the module root: sh tools/reach.sh  (or make reach)
set -eu
export LC_ALL=C
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/cov"
GOCOVERDIR=$work/cov
export GOCOVERDIR
mod=$(go list -m)

go build -cover -coverpkg=./... -o "$work/cuttlesys" ./cmd/cuttlesys
go build -cover -coverpkg=./... -o "$work/bench" ./bench

cs() { "$work/cuttlesys" "$@" >/dev/null; }

for r in resilience fleet obs ops scenario warmstart; do
	cs report $r -slices 12 -o /dev/null
done
for r in $("$work/cuttlesys" paper 2>&1 | sed -n 's/.*one of \[\(.*\)\]$/\1/p'); do
	cs paper $r
done
for p in $("$work/cuttlesys" sim -h 2>&1 | sed -n '/-policy/{n;s/ (default.*//;s/|//g;p;}'); do
	cs sim -policy $p -slices 4
done
cs list
cs validate
for s in $("$work/cuttlesys" list | awk '{print $1}'); do
	cs describe $s
	cs run $s -machines 2 -slices 6
done
cs report obs -machines 2 -slices 4 -trace "$work/t.jsonl" \
	-chrome /dev/null -prom /dev/null -o /dev/null
cs trace "$work/t.jsonl"
cs trace -summary "$work/t.jsonl"
cs trace -chrome -o /dev/null "$work/t.jsonl"
cs lint ./...
cs lint -json ./...
"$work/bench" -smoke -seed 1 -o "$work/smoke.json" -spans "$work/spans.json" >/dev/null
"$work/bench" -compare "$work/smoke.json" "$work/smoke.json" >/dev/null
"$work/bench" -seconds 1 -workload single-machine >/dev/null
go test -cover -coverpkg=./... -run '^Example' . -args -test.gocoverdir="$GOCOVERDIR" >/dev/null

go tool covdata func -i "$GOCOVERDIR" > "$work/func.txt"
go tool covdata textfmt -i "$GOCOVERDIR" -o "$work/profile.txt"

# A function's statements start in the first block at or after its
# line; when that block has none, neither has the function.
awk -v mod="$mod/" '
	FNR == 1 { f++ }
	f == 1 && FNR > 1 {
		split($1, a, ":"); split(a[2], b, "."); line = b[1] + 0
		if (!((a[1], line) in first) || b[2] + 0 < firstcol[a[1], line]) {
			first[a[1], line] = $2; firstcol[a[1], line] = b[2] + 0
		}
		if (line > maxline[a[1]]) maxline[a[1]] = line
	}
	f == 2 && $NF == "0.0%" {
		split($1, a, ":")
		for (l = a[2] + 0; l <= maxline[a[1]] && !((a[1], l) in first); l++) {}
		if (first[a[1], l] + 0 == 0) next
		sub("^" mod, "", a[1]); print a[1] ":" $2
	}' "$work/profile.txt" "$work/func.txt" | sort -u > "$work/unreached.txt"
sed 's/ *#.*//;/^$/d' tools/reach.allow | sort -u > "$work/allowed.txt"
grep '# host-dependent kernel' tools/reach.allow | sed 's/ *#.*//' | sort -u > "$work/host.txt"
sed -n "s|^$mod/\([^:]*\):[0-9]*:[[:space:]]*\([^[:space:]]*\).*|\1:\2|p" "$work/func.txt" |
	sort -u > "$work/all.txt"

echo "reach: $(wc -l < "$work/unreached.txt") of $(grep -cv '^total' "$work/func.txt") functions unreached"
status=0
if comm -23 "$work/unreached.txt" "$work/allowed.txt" | grep .; then
	echo "reach: unreached and not in tools/reach.allow (give each a production caller, move it into a test, or delete it)"
	status=1
fi
if { comm -13 "$work/unreached.txt" "$work/allowed.txt" | comm -23 - "$work/host.txt"
	comm -23 "$work/host.txt" "$work/all.txt"; } | grep .; then
	echo "reach: stale tools/reach.allow entries (reached, or gone)"
	status=1
fi
exit $status
