package core

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// TestNondetEventsReplayConsistently exercises the §10 extension: a guest
// performs genuinely nondeterministic events (values from a shared atomic
// counter advanced by the test — different on every call), accumulates
// their sum in its state, and reports each value to a partner. After its
// cluster crashes mid-run, the roll-forward must replay the logged values
// — not recompute fresh ones — so the sum the guest reports at the end
// equals the sum of values the partner observed.
func TestNondetEventsReplayConsistently(t *testing.T) {
	sys, err := New(Options{Clusters: 3, SyncReads: 4, SyncTicks: 1 << 20, EventLogLimit: 1 << 12}, guest.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	crashed := crashAtDelivery(sys, 2, 200)

	// The nondeterministic source: global, advancing, never repeating.
	var source atomic.Uint64
	source.Store(1000)

	const rounds = 400
	sys.Register("roller", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("chan:nd")
				if err != nil {
					return err
				}
				st.PutInt64("fd", int64(fd))
				v, err := p.Nondet(func() uint64 { return source.Add(7) })
				if err != nil {
					return err
				}
				st.Add("sum", int64(v))
				st.PutInt64("sent", 1)
				return p.Write(fd, []byte(strconv.FormatUint(v, 10)))
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) != st.GetInt64("fd") {
					return nil
				}
				if st.GetInt64("sent") >= rounds {
					tty, err := p.Open("tty:40")
					if err != nil {
						return err
					}
					if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("roller sum=%d", st.GetInt64("sum")))); err != nil {
						return err
					}
					st.Exit()
					return nil
				}
				v, err := p.Nondet(func() uint64 { return source.Add(7) })
				if err != nil {
					return err
				}
				st.Add("sum", int64(v))
				st.Add("sent", 1)
				return p.Write(fd, []byte(strconv.FormatUint(v, 10)))
			},
		}
	}))
	// The partner accumulates what it OBSERVES and acks each value.
	sys.Register("observer", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("chan:nd")
				if err != nil {
					return err
				}
				st.PutInt64("fd", int64(fd))
				return nil
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) != st.GetInt64("fd") {
					return nil
				}
				v, err := strconv.ParseUint(string(data), 10, 64)
				if err != nil {
					return fmt.Errorf("observer: bad value %q", data)
				}
				st.Add("seen", int64(v))
				n := st.Add("count", 1)
				if err := p.Write(fd, []byte("ack")); err != nil {
					return err
				}
				if n >= rounds {
					tty, err := p.Open("tty:40")
					if err != nil {
						return err
					}
					if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("observer sum=%d", st.GetInt64("seen")))); err != nil {
						return err
					}
					st.Exit()
				}
				return nil
			},
		}
	}))

	if _, err := sys.Spawn("observer", nil, SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	rollerPID, err := sys.Spawn("roller", nil, SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	_ = rollerPID

	awaitFault(t, crashed)

	var rollerSum, observerSum int64
	for _, r := range []struct {
		prefix string
		sum    *int64
	}{{"roller sum=", &rollerSum}, {"observer sum=", &observerSum}} {
		lines, err := sys.WaitTerminal(40, r.prefix, 1, 30*time.Second)
		if err != nil {
			t.Fatalf("%v\nguestErrs=%v\n%s", err, sys.GuestErrors(), sys.DumpAll())
		}
		fmt.Sscanf(lines[0], r.prefix+"%d", r.sum)
	}
	if rollerSum != observerSum {
		t.Fatalf("nondet divergence after crash: roller=%d observer=%d", rollerSum, observerSum)
	}
	if sys.Metrics().Recoveries.Load() == 0 {
		t.Fatal("no recovery happened")
	}
}
