#!/bin/sh
# Documentation symbol check: every backticked Go identifier in README.md and
# DESIGN.md — `Name`, `pkg.Name`, `Type.Method()` — must still name something
# in the tree's Go source, and every backticked file name (`x_test.go`,
# `LINT_baseline.json`) a file in the tree, so a rename or deletion cannot
# leave the docs pointing at code that is gone. Each dot-separated part of an
# identifier is looked up as a whole word in the Go files, a file name by its
# base name. A section whose heading contains "historical" is skipped up to
# the next heading of the same or a higher level.
#
#   sh scripts/docsyms.sh            # exits 1 and lists each stale name
set -eu
cd "$(dirname "$0")/.."
words=$(mktemp)
trap 'rm -f "$words"' EXIT
{
	find . -name '*.go' ! -path './.bench_build/*' -exec cat {} + | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
	find . -type f ! -path './.git/*' ! -path './.bench_build/*' | sed 's|.*/|file:|'
} | sort -u >"$words"

status=0
for doc in README.md DESIGN.md; do
	missing=$(awk '
		/^#+ / {
			level = length($1)
			if (skip && level <= skipLevel) skip = 0
			if (!skip && tolower($0) ~ /historical/) { skip = 1; skipLevel = level }
		}
		skip { next }
		{
			line = $0
			while (match(line, /`[^`]+`/)) {
				span = substr(line, RSTART + 1, RLENGTH - 2)
				line = substr(line, RSTART + RLENGTH)
				sub(/\(\)$/, "", span)
				if (span ~ /^[A-Za-z0-9_.\/-]+\.(go|json|md|sh|yml|txt)$/) {
					sub(/.*\//, "", span)
					print NR ": " span " file:" span
					continue
				}
				if (span !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$/) continue
				n = split(span, part, ".")
				for (i = 1; i <= n; i++) print NR ": " span " " part[i]
			}
		}' "$doc" |
		awk 'NR == FNR { known[$1] = 1; next } !($3 in known) { print $1 " `" $2 "`" }' "$words" -)
	if [ -n "$missing" ]; then
		echo "$missing" | sed "s|^|$doc:|"
		status=1
	fi
done
exit $status
