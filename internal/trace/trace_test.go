package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotAndDelta(t *testing.T) {
	var m Metrics
	m.BusTransmissions.Add(5)
	m.Syncs.Add(2)
	before := m.Snapshot()
	m.BusTransmissions.Add(3)
	m.Recoveries.Add(1)
	d := m.Snapshot().Delta(before)
	if d["bus_transmissions"] != 3 {
		t.Errorf("delta transmissions = %d", d["bus_transmissions"])
	}
	if d["syncs"] != 0 {
		t.Errorf("delta syncs = %d", d["syncs"])
	}
	if d["recoveries"] != 1 {
		t.Errorf("delta recoveries = %d", d["recoveries"])
	}
}

func TestSnapshotStringStableOrder(t *testing.T) {
	var m Metrics
	s1 := m.Snapshot().String()
	s2 := m.Snapshot().String()
	if s1 != s2 {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(s1, "bus_transmissions") {
		t.Fatal("missing counter in render")
	}
}

func TestAddRecovery(t *testing.T) {
	var m Metrics
	m.AddRecovery(2 * time.Millisecond)
	m.AddRecovery(3 * time.Millisecond)
	if got := m.RecoveryNanos.Load(); got != int64(5*time.Millisecond) {
		t.Fatalf("RecoveryNanos = %d", got)
	}
	if m.Crashes.Load() != 0 {
		t.Fatal("AddRecovery must not count crashes")
	}
}

func TestEventLogOverflowKeepsNewest(t *testing.T) {
	l := NewEventLog(3)
	for i := 1; i <= 10; i++ {
		l.Append(Event{Kind: EvTransmit, MsgID: uint64(i)})
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []uint64{8, 9, 10} {
		if evs[i].MsgID != want {
			t.Errorf("event %d: MsgID = %d, want %d", i, evs[i].MsgID, want)
		}
	}
	// Seq keeps counting across overflow: the retained window is 7..9.
	if evs[0].Seq != 7 || evs[2].Seq != 9 {
		t.Errorf("Seq window = [%d,%d], want [7,9]", evs[0].Seq, evs[2].Seq)
	}
	if got := l.Dropped(); got != 7 {
		t.Errorf("Dropped = %d, want 7", got)
	}
	if l.Len() != 3 || l.Cap() != 3 {
		t.Errorf("Len/Cap = %d/%d, want 3/3", l.Len(), l.Cap())
	}
	if l.Count(EvTransmit) != 3 || l.Count(EvCrash) != 0 {
		t.Fatal("Count wrong")
	}
}

func TestEventLogNoOverflow(t *testing.T) {
	l := NewEventLog(8)
	l.Append(Event{Kind: EvSync})
	l.Append(Event{Kind: EvCrash})
	if l.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", l.Dropped())
	}
	evs := l.Events()
	if len(evs) != 2 || evs[0].Kind != EvSync || evs[1].Kind != EvCrash {
		t.Fatalf("Events = %v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("Seq = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].When == 0 {
		t.Error("When not stamped")
	}
}

func TestEventLogDefaultCap(t *testing.T) {
	if got := NewEventLog(0).Cap(); got != DefaultEventLogCap {
		t.Fatalf("Cap = %d, want %d", got, DefaultEventLogCap)
	}
	if got := NewEventLog(-5).Cap(); got != DefaultEventLogCap {
		t.Fatalf("Cap = %d, want %d", got, DefaultEventLogCap)
	}
}

func TestEventLogConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 500
	l := NewEventLog(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(Event{Kind: EvReceive, MsgID: uint64(w*perWriter + i + 1)})
			}
		}(w)
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != writers*perWriter {
		t.Fatalf("retained %d events, want %d", len(evs), writers*perWriter)
	}
	if l.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", l.Dropped())
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d: append order not total", i, e.Seq)
		}
	}
}

func TestNilEventLogSafe(t *testing.T) {
	var l *EventLog
	l.Add(EvSync, "x") // must not panic
	l.Append(Event{Kind: EvCrash})
	if l.Events() != nil || l.Count(EvSync) != 0 || l.Len() != 0 || l.Cap() != 0 || l.Dropped() != 0 {
		t.Fatal("nil log returned data")
	}
}

// appendAsync appends e on its own goroutine; the channel closes when the
// Append returns.
func appendAsync(l *EventLog, e Event) <-chan struct{} {
	returned := make(chan struct{})
	go func() {
		l.Append(e)
		close(returned)
	}()
	return returned
}

func awaitClosed(t *testing.T, c <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestTripFiresOnceAtKthMatch: only matching events count, the Kth fires,
// the Append that fired is held until Wait takes the trip, and later
// matches neither fire again nor block.
func TestTripFiresOnceAtKthMatch(t *testing.T) {
	l := NewEventLog(64)
	tr := l.Trip(EvSync.Matches, 3)
	for _, k := range []EventKind{EvSync, EvDeliver, EvSync, EvDeliver} {
		l.Append(Event{Kind: k})
	}
	if isClosed(tr.fired) {
		t.Fatal("trip fired before its third match")
	}
	returned := appendAsync(l, Event{Kind: EvSync, Note: "third"})
	awaitClosed(t, tr.fired, "the third match firing the trip")
	if isClosed(returned) {
		t.Fatal("the firing Append returned before the trip was taken")
	}
	ev, ok := tr.Wait()
	if !ok || ev.Note != "third" || ev.Seq != 4 {
		t.Fatalf("Wait = %+v, %v; want the third sync (seq 4)", ev, ok)
	}
	awaitClosed(t, returned, "the firing Append returning after Wait")
	l.Append(Event{Kind: EvSync})
	if ev2, ok := tr.Wait(); !ok || ev2 != ev {
		t.Fatalf("a second Wait = %+v, %v; want the same firing event", ev2, ok)
	}
	if !tr.Disarm() {
		t.Fatal("Disarm after the trip fired reported false")
	}
}

// TestTripDisarm: disarmed before its match, a trip never fires and a later
// match does not block; disarmed after firing, it reports true, frees the
// held Append, and Wait still yields the firing event.
func TestTripDisarm(t *testing.T) {
	l := NewEventLog(64)
	early := l.Trip(EvCrash.Matches, 1)
	if early.Disarm() {
		t.Fatal("Disarm before any match reported fired")
	}
	l.Append(Event{Kind: EvCrash}) // would hold forever if the trip fired
	if isClosed(early.fired) {
		t.Fatal("a disarmed trip fired")
	}
	if _, ok := early.Wait(); ok {
		t.Fatal("Wait on a trip disarmed unfired reported fired")
	}

	late := l.Trip(EvCrash.Matches, 1)
	returned := appendAsync(l, Event{Kind: EvCrash, Note: "late"})
	awaitClosed(t, late.fired, "the trip firing")
	if !late.Disarm() {
		t.Fatal("Disarm after the trip fired reported false")
	}
	awaitClosed(t, returned, "the held Append returning after Disarm")
	if ev, ok := late.Wait(); !ok || ev.Note != "late" {
		t.Fatalf("Wait after Disarm = %+v, %v; want the firing event", ev, ok)
	}
}

// TestTripsFireIndependently arms two trips on one log, as a burst plan
// does: each fires at its own coordinate and is taken by its own waiter
// while the log keeps appending on one goroutine.
func TestTripsFireIndependently(t *testing.T) {
	l := NewEventLog(64)
	trips := []*Trip{l.Trip(EvDeliver.Matches, 2), l.Trip(EvSave.Matches, 1)}
	evs := make([]Event, len(trips))
	var wg sync.WaitGroup
	for i, tr := range trips {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs[i], _ = tr.Wait()
		}()
	}
	for _, k := range []EventKind{EvDeliver, EvSave, EvDeliver, EvSave, EvDeliver} {
		l.Append(Event{Kind: k})
	}
	wg.Wait()
	if evs[0].Seq != 2 || evs[1].Seq != 1 {
		t.Fatalf("trips fired at seq %d and %d, want 2 and 1", evs[0].Seq, evs[1].Seq)
	}
	for i, tr := range trips {
		if !tr.Disarm() {
			t.Errorf("trip %d: Disarm reported unfired", i)
		}
	}
}

func TestNilEventLogTrip(t *testing.T) {
	var l *EventLog
	tr := l.Trip(EvSync.Matches, 1)
	l.Append(Event{Kind: EvSync})
	if tr.Disarm() {
		t.Fatal("a trip on a nil log fired")
	}
	if _, ok := tr.Wait(); ok {
		t.Fatal("Wait on a nil log's trip reported fired")
	}
}

func TestNilEventLogAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun unreliable under -race")
	}
	var l *EventLog
	allocs := testing.AllocsPerRun(1000, func() {
		l.Append(Event{Kind: EvTransmit, MsgID: 1, When: 1})
	})
	if allocs != 0 {
		t.Fatalf("disabled Append allocates %.1f times per op, want 0", allocs)
	}
}

func TestEnabledEventLogAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun unreliable under -race")
	}
	l := NewEventLog(1 << 12)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Append(Event{Kind: EvTransmit, MsgID: 1, When: 1})
	})
	if allocs != 0 {
		t.Fatalf("enabled Append allocates %.1f times per op, want 0 (ring is preallocated)", allocs)
	}
}

func TestHashPayload(t *testing.T) {
	a := HashPayload([]byte("hello"))
	b := HashPayload([]byte("hello"))
	c := HashPayload([]byte("hellp"))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if a == c {
		t.Fatal("distinct payloads collided")
	}
	// FNV-1a 64 offset basis for empty input.
	if HashPayload(nil) != 14695981039346656037 {
		t.Fatal("empty hash is not the FNV-1a offset basis")
	}
	if !raceEnabled {
		buf := []byte{1, 2, 3}
		allocs := testing.AllocsPerRun(1000, func() { HashPayload(buf) })
		if allocs != 0 {
			t.Fatalf("HashPayload allocates %.1f times per op", allocs)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvTransmit, EvReceive, EvDeliver, EvSave, EvCount, EvSync,
		EvSyncApply, EvCrash, EvRecover, EvReplay, EvSuppress,
		EvPageFetch, EvNote, EvRepair, EvFence, EvStepDown,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "EventKind(99)" {
		t.Error("unknown kind render wrong")
	}
}

func TestRenderTimeline(t *testing.T) {
	l := NewEventLog(16)
	l.Append(Event{Kind: EvTransmit, Cluster: -1, MsgID: 1, Arg: 0xabc})
	l.Append(Event{Kind: EvReceive, Cluster: 2, MsgID: 1})
	l.Append(Event{Kind: EvCrash, Cluster: 0, Arg: 2})
	l.Append(Event{Kind: EvRecover, Cluster: 0, Arg: 3})
	out := RenderTimeline(l.Events())
	for _, want := range []string{"transmit", "receive", "crash", "crashed=cluster2", "recover", "epoch=3", "msg#1", "bus"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if RenderTimeline(nil) != "(no events recorded)\n" {
		t.Error("empty timeline render wrong")
	}
}
