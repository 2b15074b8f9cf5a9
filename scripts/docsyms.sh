#!/bin/sh
# Documentation check. It fails when
#
#   - DESIGN.md is larger than max_design_bytes: the design describes the
#     system as it is, and history belongs to git and CHANGES.md;
#   - a backticked Go identifier in README.md or DESIGN.md — `Name`,
#     `pkg.Name`, `Type.Method()` — no longer names something in the tree's
#     Go source, or a backticked file name (`x_test.go`,
#     `LINT_baseline.json`) no file in the tree. Each dot-separated part of
#     an identifier is looked up as a whole word in the Go files, a file
#     name by its base name;
#   - a citation "DESIGN.md §N" or "DESIGN.md §N.M" (also "DESIGN §N" inside
#     DESIGN.md) in non-testdata Go source, the CI workflow, README.md or
#     DESIGN.md names no numbered heading of DESIGN.md;
#   - a CHANGES.md entry is longer than max_entry_words. An entry is a
#     line starting "- " and the blank or indented lines after it; the
#     FOUND:/MENDED: lines between entries are not counted.
#
#   sh scripts/docsyms.sh            # exits 1 and lists each problem
set -eu
cd "$(dirname "$0")/.."
max_design_bytes=40960
max_entry_words=400
words=$(mktemp)
trap 'rm -f "$words"' EXIT
{
	find . -name '*.go' ! -path './.bench_build/*' -exec cat {} + | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
	find . -type f ! -path './.git/*' ! -path './.bench_build/*' | sed 's|.*/|file:|'
} | sort -u >"$words"

status=0
size=$(wc -c <DESIGN.md)
if [ "$size" -gt "$max_design_bytes" ]; then
	echo "DESIGN.md: $size bytes, over the $max_design_bytes-byte limit"
	status=1
fi

for doc in README.md DESIGN.md; do
	missing=$(awk '
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

dangling=$(
	{
		sed -nE 's/^#{2,} ([0-9]+(\.[0-9]+)*)\.? .*/heading \1/p' DESIGN.md
		{
			find . -name '*.go' ! -path '*/testdata/*' ! -path './.bench_build/*' ! -path './.git/*'
			echo .github/workflows/ci.yml
			echo README.md
			echo DESIGN.md
		} | xargs grep -HnoE 'DESIGN(\.md)?`? *§[0-9]+(\.[0-9]+)*'
	} | awk '
		$1 == "heading" { known[$2] = 1; next }
		{ n = $0; sub(/.*§/, "", n); if (!(n in known)) print $0 }'
)
if [ -n "$dangling" ]; then
	echo "$dangling" | sed 's|$| names no heading of DESIGN.md|'
	status=1
fi
long=$(awk -v max="$max_entry_words" '
	function done() { if (start && words > max) print "CHANGES.md:" start ": entry of " words " words, over the " max "-word limit"; start = 0 }
	/^- / { done(); start = NR; words = NF; next }
	/^$/ || /^[ \t]/ { if (start) words += NF; next }
	{ done() }
	END { done() }' CHANGES.md)
if [ -n "$long" ]; then
	echo "$long"
	status=1
fi
exit $status
