// Package api_bad seeds API-invariant violations: a raw channel send
// (AURO005), a constructor outside the wiring package (AURO006), and a
// discarded message-system error (AURO007).
package api_bad

import (
	"auragen/internal/bus"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// Leak hands data to another goroutine behind the bus's back.
func Leak(ch chan int) {
	ch <- 1 // want "AURO005"
}

// Build mints a private bus outside core's wiring.
func Build(m *trace.Metrics) *bus.Bus {
	return bus.New(m, nil) // want "AURO006"
}

// FireAndForget drops a broadcast error on the floor; the explicit
// assignment to _ below is the sanctioned waiver form.
func FireAndForget(b *bus.Bus, ms []*types.Message) {
	b.BroadcastBatch(ms) // want "AURO007"
	_, _ = b.BroadcastBatch(ms)
}
