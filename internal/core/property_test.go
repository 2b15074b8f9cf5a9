package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// TestCrashSweepConservation is the randomized end-to-end property test:
// across many runs with the crash injected at a pseudo-random point in the
// delivery stream — different cluster choices, different sync cadences —
// the bank invariant must hold exactly every time. In -short mode a small
// sweep runs; full mode covers more points.
func TestCrashSweepConservation(t *testing.T) {
	points := 12
	if testing.Short() {
		points = 4
	}
	rng := workload.NewRand(0xC0FFEE)
	for i := 0; i < points; i++ {
		crashAfter := 50 + rng.Intn(1200)
		syncReads := uint32(4 << rng.Intn(4)) // 4..32
		victim := types.ClusterID(1 + rng.Intn(2))
		t.Run(fmt.Sprintf("p%d_after%d_sync%d_c%d", i, crashAfter, syncReads, victim), func(t *testing.T) {
			reg := guest.NewRegistry()
			workload.Register(reg)
			sys, err := New(Options{Clusters: 3, SyncReads: syncReads, SyncTicks: 1 << 40, EventLogLimit: 1 << 12}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Stop()
			crashed := crashAtDelivery(sys, victim, crashAfter)

			const accounts, initBalance = 12, 700
			bankCluster := types.ClusterID(1)
			if victim == 1 {
				bankCluster = 2
			}
			// Bank opposite the victim cluster or on it, depending on the
			// draw; tellers on the other.
			if rng.Intn(2) == 0 {
				bankCluster = victim // crash the bank itself
			}
			tellerCluster := types.ClusterID(3 - int(bankCluster)) // 1<->2
			if _, err := sys.Spawn("bank-server",
				[]byte(fmt.Sprintf("sw %d %d 0", accounts, initBalance)),
				SpawnConfig{Cluster: bankCluster, BackupCluster: 0}); err != nil {
				t.Fatal(err)
			}
			plan := workload.TxnPlan{Accounts: accounts, Txns: 1500, Amount: 3, Seed: rng.Next()}
			pid, err := sys.Spawn("teller",
				[]byte(fmt.Sprintf("sw -1 %s", plan.Encode())),
				SpawnConfig{Cluster: tellerCluster, BackupCluster: 0})
			if err != nil {
				t.Fatal(err)
			}

			awaitFault(t, crashed)
			if err := sys.WaitExit(pid, 60*time.Second); err != nil {
				t.Fatalf("%v\nguestErrs=%v\n%s", err, sys.GuestErrors(), sys.DumpAll())
			}

			audCluster := types.ClusterID(1)
			if victim == 1 {
				audCluster = 2
			}
			if _, err := sys.Spawn("auditor", []byte("sw 50"), SpawnConfig{Cluster: audCluster}); err != nil {
				t.Fatal(err)
			}
			total := auditTotal(t, sys, 50)
			if want := int64(accounts * initBalance); total != want {
				t.Fatalf("conservation violated: total=%d want=%d (crashAfter=%d sync=%d victim=%v)",
					total, want, crashAfter, syncReads, victim)
			}
		})
	}
}

// TestReadAnyExactlyOnceAcrossCrash verifies bunch/which semantics (§7.5.1)
// under recovery: a multiplexer reads from two producers with ReadAny,
// tallies per-source counts, and must see every message exactly once even
// when its cluster crashes mid-run.
func TestReadAnyExactlyOnceAcrossCrash(t *testing.T) {
	sys := newTestSystem(t, 3)
	const perSource = 300

	// mux is a custom Guest (not a reactor): its Run loop multiplexes two
	// channels with explicit ReadAny (§7.5.1 bunch/which) and is written
	// to be resumable — every piece of progress lives in the KV heap,
	// flushed at each sync, so a recovered instance continues mid-loop.
	sys.Register("mux", func() guest.Guest { return &muxGuest{target: perSource} })
	mkSource := func(name string) guest.Factory {
		return guest.ReactorFactory(func() guest.Handler {
			return guest.HandlerFuncs{
				StartFunc: func(p guest.API, st *guest.State) error {
					fd, err := p.Open("chan:" + name)
					if err != nil {
						return err
					}
					st.PutInt64("fd", int64(fd))
					st.PutInt64("sent", 1)
					return p.Write(fd, []byte("1"))
				},
				OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
					if int64(fd) != st.GetInt64("fd") {
						return nil
					}
					sent := st.GetInt64("sent")
					if sent >= perSource {
						st.Exit()
						return nil
					}
					st.PutInt64("sent", sent+1)
					return p.Write(fd, []byte(strconv.FormatInt(sent+1, 10)))
				},
			}
		})
	}
	sys.Register("srcA", mkSource("srcA"))
	sys.Register("srcB", mkSource("srcB"))

	crashed := crashAtDelivery(sys, 2, 200) // the mux's cluster
	if _, err := sys.Spawn("mux", nil, SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("srcA", nil, SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("srcB", nil, SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}

	awaitFault(t, crashed)
	waitForTTY(t, sys, 60, fmt.Sprintf("mux a=%d b=%d", perSource, perSource), 30*time.Second)
}

// muxGuest is the resumable custom guest used by
// TestReadAnyExactlyOnceAcrossCrash.
type muxGuest struct {
	target int64
	kv     *memory.KV
}

func (g *muxGuest) Run(p guest.API) error {
	kv, err := memory.NewKV(p.Space())
	if err != nil {
		return err
	}
	g.kv = kv
	// Open once; fd numbers are deterministic and the "opened" flag is
	// captured by the same sync that captures the open-reply reads, so a
	// recovered instance never double-opens.
	if kv.GetInt64("opened") == 0 {
		a, err := p.Open("chan:srcA")
		if err != nil {
			return err
		}
		b, err := p.Open("chan:srcB")
		if err != nil {
			return err
		}
		kv.PutInt64("a", int64(a))
		kv.PutInt64("b", int64(b))
		kv.PutInt64("opened", 1)
		p.Tick(1)
		if err := p.SyncPoint(); err != nil {
			return err
		}
	}
	a := types.FD(kv.GetInt64("a"))
	b := types.FD(kv.GetInt64("b"))
	for kv.GetInt64("countA") < g.target || kv.GetInt64("countB") < g.target {
		fd, data, err := p.ReadAny([]types.FD{a, b})
		if err != nil {
			return err
		}
		if _, err := strconv.Atoi(string(data)); err != nil {
			return fmt.Errorf("mux: bad record %q", data)
		}
		if fd == a {
			kv.Add("countA", 1)
		} else {
			kv.Add("countB", 1)
		}
		if err := p.Write(fd, []byte("ack")); err != nil {
			return err
		}
		p.Tick(1)
		if err := p.SyncPoint(); err != nil {
			return err
		}
	}
	tty, err := p.Open("tty:60")
	if err != nil {
		return err
	}
	return p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("mux a=%d b=%d",
		kv.GetInt64("countA"), kv.GetInt64("countB"))))
}

func (g *muxGuest) FlushState() {
	if g.kv != nil {
		g.kv.Flush()
	}
}

func (g *muxGuest) MarshalRegs() []byte        { return nil }
func (g *muxGuest) UnmarshalRegs([]byte) error { return nil }

// TestForkTreeSurvivesCrash builds a two-level family (parent forks
// children; children fork grandchildren) and crashes the family's cluster
// mid-build: every descendant's work must appear exactly once.
func TestForkTreeSurvivesCrash(t *testing.T) {
	sys := newTestSystem(t, 3)
	const children, grandPer = 4, 3

	sys.Register("leaf", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				out, err := p.Open("dial:collector")
				if err != nil {
					return err
				}
				if err := p.Write(out, []byte("leaf "+string(p.Args()))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	sys.Register("mid", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				for i := 0; i < grandPer; i++ {
					if _, err := p.Fork("leaf", []byte(fmt.Sprintf("%s.%d", p.Args(), i))); err != nil {
						return err
					}
				}
				st.Exit()
				return nil
			},
		}
	}))
	sys.Register("root", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				for i := 0; i < children; i++ {
					if _, err := p.Fork("mid", []byte(strconv.Itoa(i))); err != nil {
						return err
					}
				}
				st.Exit()
				return nil
			},
		}
	}))
	// The collector counts distinct leaf reports and flags duplicates.
	sys.Register("fcollector", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("serve:collector")
				if err != nil {
					return err
				}
				st.PutInt64("listen", int64(fd))
				return nil
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) == st.GetInt64("listen") {
					_, err := p.Accept(data)
					return err
				}
				key := "seen/" + string(data)
				if _, dup := st.Get(key); dup {
					return fmt.Errorf("duplicate leaf report %q", data)
				}
				st.Put(key, []byte{1})
				if st.Add("n", 1) == int64(children*grandPer) {
					tty, err := p.Open("tty:61")
					if err != nil {
						return err
					}
					if err := p.Write(tty, ttyserver.WriteReq("tree complete")); err != nil {
						return err
					}
					st.Exit()
				}
				return nil
			},
		}
	}))

	if _, err := sys.Spawn("fcollector", nil, SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	// Crash the family's cluster as soon as some forking has happened: at
	// the third birth notice the bus carries.
	birth := func(e trace.Event) bool { return e.Kind == trace.EvTransmit && e.MsgKind == types.KindBirthNotice }
	crashed := faultAt(sys, birth, 3, func() error { return sys.Crash(2) })
	if _, err := sys.Spawn("root", nil, SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	awaitFault(t, crashed)
	waitForTTY(t, sys, 61, "tree complete", 30*time.Second)
	if errs := sys.GuestErrors(); len(errs) > 0 {
		t.Fatalf("guest errors (duplicates?): %v", errs)
	}
}
