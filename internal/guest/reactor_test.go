package guest

import (
	"errors"
	"testing"
	"time"

	"auragen/internal/memory"
	"auragen/internal/types"
)

// mockAPI scripts a sequence of events for a reactor under test.
type mockAPI struct {
	space     *memory.AddressSpace
	events    []Event
	writes    []string
	syncs     int
	recovered bool
	// syncHook runs inside SyncPoint (simulating the kernel's sync).
	syncHook func()
}

func newMockAPI(events ...Event) *mockAPI {
	return &mockAPI{space: memory.NewAddressSpace(128), events: events}
}

func (m *mockAPI) PID() types.PID              { return 1 }
func (m *mockAPI) Args() []byte                { return []byte("args") }
func (m *mockAPI) Recovered() bool             { return m.recovered }
func (m *mockAPI) Space() *memory.AddressSpace { return m.space }
func (m *mockAPI) Tick(uint64)                 {}
func (m *mockAPI) Open(string) (types.FD, error) {
	return 2, nil
}
func (m *mockAPI) Accept([]byte) (types.FD, error) { return 3, nil }
func (m *mockAPI) Close(types.FD) error            { return nil }
func (m *mockAPI) Read(types.FD) ([]byte, error)   { return nil, types.ErrNotSupported }
func (m *mockAPI) ReadAny([]types.FD) (types.FD, []byte, error) {
	return types.NoFD, nil, types.ErrNotSupported
}
func (m *mockAPI) Write(fd types.FD, data []byte) error {
	m.writes = append(m.writes, string(data))
	return nil
}
func (m *mockAPI) Call(fd types.FD, req []byte) ([]byte, error) {
	return nil, types.ErrNotSupported
}
func (m *mockAPI) Time() (int64, error)                  { return 42, nil }
func (m *mockAPI) Alarm(time.Duration) error             { return nil }
func (m *mockAPI) IgnoreSignal(types.Signal, bool) error { return nil }
func (m *mockAPI) Fork(string, []byte) (types.PID, error) {
	return types.NoPID, types.ErrNotSupported
}
func (m *mockAPI) Nondet(compute func() uint64) (uint64, error) { return compute(), nil }
func (m *mockAPI) SyncPoint() error {
	m.syncs++
	if m.syncHook != nil {
		m.syncHook()
	}
	return nil
}
func (m *mockAPI) NextEvent() (Event, error) {
	if len(m.events) == 0 {
		return Event{}, types.ErrShutdown
	}
	e := m.events[0]
	m.events = m.events[1:]
	return e, nil
}

func TestReactorDispatch(t *testing.T) {
	var gotStart bool
	var msgs []string
	var sigs []types.Signal
	h := HandlerFuncs{
		StartFunc: func(p API, st *State) error {
			gotStart = true
			return nil
		},
		OnMessageFunc: func(p API, st *State, fd types.FD, data []byte) error {
			msgs = append(msgs, string(data))
			if len(msgs) == 2 {
				st.Exit()
			}
			return nil
		},
		OnSignalFunc: func(p API, st *State, sig types.Signal) error {
			sigs = append(sigs, sig)
			return nil
		},
	}
	api := newMockAPI(
		Event{FD: 2, Data: []byte("a")},
		Event{IsSignal: true, Signal: types.SigUser},
		Event{FD: 2, Data: []byte("b")},
	)
	g := Reactor(h)
	if err := g.Run(api); err != nil {
		t.Fatal(err)
	}
	if !gotStart {
		t.Fatal("Start not called")
	}
	if len(msgs) != 2 || msgs[0] != "a" || msgs[1] != "b" {
		t.Fatalf("msgs = %v", msgs)
	}
	if len(sigs) != 1 || sigs[0] != types.SigUser {
		t.Fatalf("sigs = %v", sigs)
	}
	if api.syncs == 0 {
		t.Fatal("no sync points reached")
	}
}

func TestReactorStartErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	g := Reactor(HandlerFuncs{StartFunc: func(p API, st *State) error { return boom }})
	if err := g.Run(newMockAPI()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReactorHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	g := Reactor(HandlerFuncs{
		OnMessageFunc: func(p API, st *State, fd types.FD, data []byte) error { return boom },
	})
	api := newMockAPI(Event{FD: 2, Data: []byte("x")})
	if err := g.Run(api); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReactorExitInStartSkipsLoop(t *testing.T) {
	g := Reactor(HandlerFuncs{StartFunc: func(p API, st *State) error {
		st.Exit()
		return nil
	}})
	api := newMockAPI(Event{FD: 2, Data: []byte("never")})
	if err := g.Run(api); err != nil {
		t.Fatal(err)
	}
	if len(api.events) != 1 {
		t.Fatal("loop consumed events after Exit in Start")
	}
	// The exit latch is not captured state: a sync here would bring up a
	// backup that skips Start and then waits in NextEvent forever.
	if api.syncs != 0 {
		t.Fatalf("%d sync points after Exit in Start, want none", api.syncs)
	}
}

// TestReactorRecoveryResumesFromHeap emulates a crash and roll-forward: the
// state captured at a sync (flushed heap + regs) rebuilt on a new reactor
// must continue, not restart.
func TestReactorRecoveryResumesFromHeap(t *testing.T) {
	starts := 0
	mk := func() Handler {
		return HandlerFuncs{
			StartFunc: func(p API, st *State) error {
				starts++
				st.PutInt64("count", 100)
				return nil
			},
			OnMessageFunc: func(p API, st *State, fd types.FD, data []byte) error {
				st.Add("count", 1)
				return nil
			},
		}
	}

	// Primary runs Start + 2 messages, syncing (flushing) each time.
	primary := Reactor(mk()).(*reactor)
	api := newMockAPI(Event{FD: 2, Data: []byte("a")}, Event{FD: 2, Data: []byte("b")})
	api.syncHook = func() { primary.FlushState() }
	if err := primary.Run(api); err != nil && !errors.Is(err, types.ErrShutdown) {
		t.Fatal(err)
	}
	regs := primary.MarshalRegs()

	// "Crash": rebuild from the flushed space + regs, deliver one more
	// message, and verify the count continued from 102.
	space2 := memory.NewAddressSpace(128)
	space2.Install(api.space.SnapshotAll())
	backup := Reactor(mk()).(*reactor)
	if err := backup.UnmarshalRegs(regs); err != nil {
		t.Fatal(err)
	}
	api2 := newMockAPI(Event{FD: 2, Data: []byte("c")})
	api2.space = space2
	api2.recovered = true
	api2.syncHook = func() { backup.FlushState() }
	if err := backup.Run(api2); err != nil && !errors.Is(err, types.ErrShutdown) {
		t.Fatal(err)
	}
	if starts != 1 {
		t.Fatalf("Start ran %d times; recovery must not restart a started process", starts)
	}
	kv, err := memory.NewKV(space2)
	if err != nil {
		t.Fatal(err)
	}
	if got := kv.GetInt64("count"); got != 103 {
		t.Fatalf("count after recovery = %d, want 103", got)
	}
}

func TestReactorEpochZeroRecoveryRunsStart(t *testing.T) {
	// A backup whose primary never synced replays from the beginning:
	// empty regs blob means Start runs again.
	starts := 0
	g := Reactor(HandlerFuncs{StartFunc: func(p API, st *State) error {
		starts++
		st.Exit()
		return nil
	}})
	if err := g.UnmarshalRegs(nil); err != nil {
		t.Fatal(err)
	}
	api := newMockAPI()
	api.recovered = true
	if err := g.Run(api); err != nil {
		t.Fatal(err)
	}
	if starts != 1 {
		t.Fatalf("starts = %d", starts)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("p", ReactorFactory(func() Handler { return HandlerFuncs{} }))
	if _, ok := r.New("p"); !ok {
		t.Fatal("registered program not found")
	}
	if _, ok := r.New("q"); ok {
		t.Fatal("unknown program found")
	}
	if len(r.Names()) != 1 {
		t.Fatal("Names wrong")
	}
	// Same factory must produce distinct instances.
	a, _ := r.New("p")
	b, _ := r.New("p")
	if a == b {
		t.Fatal("factory returned shared instance")
	}
}

func TestHandlerFuncsNilFieldsAreNoops(t *testing.T) {
	h := HandlerFuncs{}
	if err := h.Start(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.OnMessage(nil, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.OnSignal(nil, nil, types.SigInt); err != nil {
		t.Fatal(err)
	}
}
