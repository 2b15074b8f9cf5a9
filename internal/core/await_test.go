package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auragen/internal/directory"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// TestAwait pins core's one wait: a change announced after its condition
// turns true wakes the waiter well before the watchdog; a condition that
// turns true unannounced fails as a lost wakeup; a line the terminal device
// applies is announced; and Stop ends a blocked wait with
// types.ErrShutdown.
func TestAwait(t *testing.T) {
	// A probe's condition holds once ready reports true; looked closes at
	// its first look.
	type probe struct {
		ready  func() bool
		looked chan struct{}
		once   sync.Once
	}
	flag := func(b *atomic.Bool) *probe { return &probe{ready: b.Load, looked: make(chan struct{})} }
	// start runs one await and returns once it has looked at its condition.
	start := func(s *System, p *probe, watchdog time.Duration) <-chan error {
		errc := make(chan error, 1)
		go func() {
			errc <- s.await("probe", watchdog, func() (string, error) {
				p.once.Do(func() { close(p.looked) })
				if p.ready() {
					return "", nil
				}
				return "waiting", nil
			})
		}()
		<-p.looked
		return errc
	}

	t.Run("notify wakes the waiter", func(t *testing.T) {
		s := &System{dir: directory.New()}
		var ready atomic.Bool
		const watchdog = 10 * time.Second
		t0 := time.Now()
		errc := start(s, flag(&ready), watchdog)
		ready.Store(true)
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
		var ready atomic.Bool
		errc := start(s, flag(&ready), 20*time.Millisecond)
		ready.Store(true)
		err := <-errc
		if err == nil || !strings.Contains(err.Error(), "lost wakeup") {
			t.Fatalf("got %v, want a lost wakeup", err)
		}
	})

	t.Run("a terminal line wakes the waiter", func(t *testing.T) {
		dir := directory.New()
		s := &System{dir: dir, ttyDevice: ttyserver.NewDevice(dir.Notify)}
		p := &probe{looked: make(chan struct{})}
		p.ready = func() bool { return len(s.TerminalOutput(1)) > 0 }
		errc := start(s, p, time.Second)
		s.ttyDevice.Write(1, "hello")
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("Stop ends a blocked wait", func(t *testing.T) {
		sys := newTestSystem(t, 2)
		var never atomic.Bool
		errc := start(sys, flag(&never), 10*time.Second)
		sys.Stop()
		if err := <-errc; !errors.Is(err, types.ErrShutdown) {
			t.Fatalf("got %v, want types.ErrShutdown", err)
		}
	})
}

// TestWaitTerminal pins the terminal wait: it returns a line the guest
// writes after the call, waits for the nth matching line, and its watchdog
// error quotes the terminal.
func TestWaitTerminal(t *testing.T) {
	t.Run("a line written after the call", func(t *testing.T) {
		sys := newTestSystem(t, 3)
		if _, err := sys.Spawn("counter", []byte("wt"), SpawnConfig{Cluster: 1}); err != nil {
			t.Fatal(err)
		}
		spawnClient(t, sys, "wt", 100, SpawnConfig{Cluster: 2})
		lines, err := sys.WaitTerminal(1, "final=", 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 1 || lines[0] != "final=100" {
			t.Fatalf("got %q, want [final=100]", lines)
		}
	})

	t.Run("the nth matching line", func(t *testing.T) {
		sys := newTestSystem(t, 3)
		for i, total := range []int{30, 300} {
			name := fmt.Sprintf("wt%d", i)
			if _, err := sys.Spawn("counter", []byte(name), SpawnConfig{Cluster: 1}); err != nil {
				t.Fatal(err)
			}
			spawnClient(t, sys, name, total, SpawnConfig{Cluster: 2})
		}
		lines, err := sys.WaitTerminal(1, "final=", 2, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines) // the two clients race to the terminal
		if len(lines) != 2 || lines[0] != "final=30" || lines[1] != "final=300" {
			t.Fatalf("got %q, want final=30 and final=300", lines)
		}
	})

	t.Run("the watchdog quotes the terminal", func(t *testing.T) {
		dir := directory.New()
		s := &System{dir: dir, ttyDevice: ttyserver.NewDevice(dir.Notify)}
		s.ttyDevice.Write(4, "ready")
		_, err := s.WaitTerminal(4, "done", 1, 20*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), `terminal 4 shows ["ready"]`) {
			t.Fatalf("got %v, want a watchdog error quoting terminal 4", err)
		}
	})
}
