#!/bin/sh
# Non-test code-line ratchet (ROADMAP aim 3): counts the non-blank,
# non-comment lines of non-test Go under internal/ and cmd/ (testdata
# excluded) and fails when the total exceeds scripts/loc.max. A PR that
# shrinks the total lowers loc.max to match; nothing raises it silently.
set -eu
cd "$(dirname "$0")/.."
total=$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 cat | grep -cvE '^[[:space:]]*($|//)')
max=$(cat scripts/loc.max)
echo "non-test Go code lines: $total (ceiling $max)"
[ "$total" -le "$max" ]
