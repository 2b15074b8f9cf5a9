package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"auragen/internal/directory"
	"auragen/internal/types"
)

// TestAwait pins core's one wait: a change announced after its condition
// turns true wakes the waiter well before the watchdog; a condition that
// turns true unannounced fails as a lost wakeup; and Stop ends a blocked
// wait with types.ErrShutdown.
func TestAwait(t *testing.T) {
	// cond reports "waiting" until ready is set, counting its looks.
	type probe struct{ looks, ready atomic.Bool }
	cond := func(p *probe) func() (string, error) {
		return func() (string, error) {
			p.looks.Store(true)
			if p.ready.Load() {
				return "", nil
			}
			return "waiting", nil
		}
	}
	// start runs one await and returns once it has looked at its condition.
	start := func(s *System, p *probe, watchdog time.Duration) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- s.await("probe", watchdog, cond(p)) }()
		for !p.looks.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		return errc
	}

	t.Run("notify wakes the waiter", func(t *testing.T) {
		s := &System{dir: directory.New()}
		p := &probe{}
		const watchdog = 10 * time.Second
		t0 := time.Now()
		errc := start(s, p, watchdog)
		p.ready.Store(true)
		s.dir.Notify()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > watchdog/10 {
			t.Fatalf("woken after %v; the watchdog is %v", d, watchdog)
		}
	})

	t.Run("unannounced change is a lost wakeup", func(t *testing.T) {
		s := &System{dir: directory.New()}
		p := &probe{}
		errc := start(s, p, 20*time.Millisecond)
		p.ready.Store(true)
		err := <-errc
		if err == nil || !strings.Contains(err.Error(), "lost wakeup") {
			t.Fatalf("got %v, want a lost wakeup", err)
		}
	})

	t.Run("Stop ends a blocked wait", func(t *testing.T) {
		sys := newTestSystem(t, 2)
		errc := start(sys, &probe{}, 10*time.Second)
		sys.Stop()
		if err := <-errc; !errors.Is(err, types.ErrShutdown) {
			t.Fatalf("got %v, want types.ErrShutdown", err)
		}
	})
}
