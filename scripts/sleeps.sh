#!/bin/sh
# Sleep ratchet (ROADMAP aim 1: no verdict depends on a poll loop): counts
# the time.Sleep( calls in Go files under internal/, cmd/ and examples/
# (tests included, testdata excluded) and fails when the count exceeds
# scripts/sleeps.max. A wait on system state goes through core's await
# (System.WaitTerminal, WaitExit, ...) or an event-log trip; the sleeps
# left are for things nothing announces, and each says so in a comment.
set -eu
cd "$(dirname "$0")/.."
total=$(find internal cmd examples -name '*.go' ! -path '*/testdata/*' -print0 |
	xargs -0 cat | grep -o 'time\.Sleep(' | wc -l)
max=$(cat scripts/sleeps.max)
echo "time.Sleep calls: $total (ceiling $max)"
[ "$total" -le "$max" ]
