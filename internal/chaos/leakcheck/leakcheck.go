// Package leakcheck is the shared goroutine-leak accounting used by the
// chaos, sequential, and soak campaigns. Every fault test ends the same
// way: record a baseline before booting the system, run the campaign,
// then insist the goroutine count settles back near the baseline —
// anything left over is an injector, executive, or detector goroutine
// that outlived its system. The polling loop and the stack dump on
// failure used to be copy-pasted per test; they live here so chaos,
// sequential, and soak tests (and the soak fingerprinting, which runs
// outside testing) share one definition of "settled".
package leakcheck

import (
	"runtime"
	"time"
)

// TB is the subset of testing.TB that Check needs. Declaring it here
// keeps the package importable from non-test code (the soak fingerprint
// path) without linking the testing package's flags into binaries.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

const (
	// DefaultSlack is how many goroutines above baseline still count as
	// settled: the test framework itself keeps a few helpers alive
	// (timer goroutines, the test runner), and their number varies by a
	// couple between runs.
	DefaultSlack = 3

	// DefaultTimeout bounds how long Check waits for stragglers. Crash
	// paths park goroutines on timeouts up to a few seconds (page-fetch
	// retries, transmit backoff), so the window must comfortably exceed
	// the longest such timer.
	DefaultTimeout = 10 * time.Second

	pollInterval = 10 * time.Millisecond
)

// Baseline samples the current goroutine count. Call it before booting
// the system under test.
func Baseline() int { return runtime.NumGoroutine() }

// Settled polls until the goroutine count drops to base+slack or the
// timeout expires, returning the last observed count and whether it
// settled. slack <= 0 and timeout <= 0 select the defaults.
func Settled(base, slack int, timeout time.Duration) (int, bool) {
	if slack <= 0 {
		slack = DefaultSlack
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for n > base+slack {
		if time.Now().After(deadline) {
			return n, false
		}
		// Nothing announces a goroutine's exit, so the count is polled.
		time.Sleep(pollInterval)
		n = runtime.NumGoroutine()
	}
	return n, true
}

// Check fails t with a full goroutine stack dump if the count does not
// settle to base+slack within the timeout. slack <= 0 and timeout <= 0
// select the defaults.
func Check(t TB, base, slack int, timeout time.Duration) {
	t.Helper()
	if n, ok := Settled(base, slack, timeout); !ok {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutine leak: %d running, baseline %d (slack %d)\n%s",
			n, base, slack, buf)
	}
}

// Stable waits for the goroutine count to hold the same value for a few
// consecutive polls and returns it — the soak fingerprint's settled
// count. Unlike Settled it needs no baseline: between soak cycles the
// system is quiescent, so a steady reading IS the cycle's footprint. If
// the count never steadies before the timeout, the last reading is
// returned; the drift oracle will flag it if it grew.
func Stable(timeout time.Duration) int {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	const need = 5 // consecutive identical readings
	last, streak := runtime.NumGoroutine(), 1
	for streak < need && !time.Now().After(deadline) {
		// Nothing announces a goroutine's exit, so the count is polled.
		time.Sleep(pollInterval)
		n := runtime.NumGoroutine()
		if n == last {
			streak++
		} else {
			last, streak = n, 1
		}
	}
	return last
}
