#!/bin/sh
# regen.sh rewrites every pinned bit from the tree as it stands: the
# packages whose tests import internal/pin run with -update (their
# testdata/pins.json and golden files), and tools/smoke.digests takes
# the bench smoke's four sim_digest lines, which the default and the
# noasm build must agree on. `make regen` runs `make reports` first.
# It fails where a canary skips: that host cannot record the pins.
# It ends with `git diff HEAD --stat` and every pin line that moved
# since HEAD; on a tree whose bits did not move, `git status` stays
# clean.
#
# Usage, from the module root: sh tools/regen.sh  (or make regen)
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... >"$work/list"
pkgs=$(awk '/ cuttlesys\/internal\/pin( |$)/ { print $1 }' "$work/list")
if [ -z "$pkgs" ]; then
	echo "regen: no package's tests import cuttlesys/internal/pin" >&2
	exit 1
fi
# -v, so that a canary's skip is in the log: a skipped pin is not
# rewritten, and regen must not report it as unmoved.
# shellcheck disable=SC2086 # one argument per package
if ! go test -count=1 -v $pkgs -update >"$work/test" 2>&1; then
	cat "$work/test" >&2
	exit 1
fi
grep -E '^(ok|FAIL)[[:space:]]' "$work/test"
if grep -F 'differ from the recording host' "$work/test" >&2; then
	echo "regen: a canary skipped the pins above on this host; they were not rewritten" >&2
	exit 1
fi

go run ./bench -smoke -seed 1 | grep sim_digest > "$work/asm"
go run -tags noasm ./bench -smoke -seed 1 | grep sim_digest > "$work/noasm"
if ! cmp -s "$work/asm" "$work/noasm"; then
	echo "regen: the default and noasm bench smoke builds disagree:" >&2
	diff "$work/asm" "$work/noasm" >&2 || true
	exit 1
fi
cp "$work/asm" tools/smoke.digests

git diff HEAD --stat
echo "moved pins:"
git diff HEAD -U0 -- ':(glob)**/testdata/pins.json' tools/smoke.digests | grep -E '^(\+\+\+ |[-+][^-+])' || echo "  none"
