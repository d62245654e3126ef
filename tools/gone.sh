#!/bin/sh
# gone.sh keeps removed names gone: it runs `git grep -nE` for each row
# of tools/gone.txt over the row's pathspecs, drops the hits the row's
# filter allows, prints what is left under the PRs that removed the
# name, and fails if anything is.
#
# Usage, from the module root: sh tools/gone.sh  (or make gone)
set -euf
tab=$(printf '\t')
status=0
while IFS=$tab read -r prs re paths allow; do
	case $prs in '' | '#'*) continue ;; esac
	rc=0
	# shellcheck disable=SC2086 # the pathspecs split on spaces
	hits=$(git grep -nE "$re" -- $paths) || rc=$?
	if [ "$rc" -gt 1 ]; then
		echo "gone: git grep failed on $re" >&2
		exit 2
	fi
	if [ -n "$hits" ] && [ -n "$allow" ]; then
		hits=$(printf '%s\n' "$hits" | grep -vE "$allow") || true
	fi
	if [ -n "$hits" ]; then
		echo "removed in PR $prs, back in:"
		printf '%s\n' "$hits"
		status=1
	fi
done <tools/gone.txt
exit $status
