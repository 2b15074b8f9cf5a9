package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// Every workload runs on four clusters so that the destination's backup and
// the sender's backup are distinct machines and a data message really
// reaches three clusters (§5.1). Clusters 0 and 1 also host the system
// servers; the failover campaign never crashes them.
const (
	clusters      = 4
	clientCluster = types.ClusterID(1)
	serverCluster = types.ClusterID(2)
)

// noProgress is how long a repetition may go without an acknowledged
// operation before it is abandoned and its remaining operations counted as
// failed.
const noProgress = 5 * time.Second

// workloadSpec is one set of inputs. ops and warm are per repetition at
// scale 1; every repetition boots a fresh system, issues warm operations
// unmeasured, then ops measured ones.
type workloadSpec struct {
	name string
	why  string
	ops  int
	warm int

	serverProg, clientProg string
	serverBackup           types.ClusterID
	clientBackup           types.ClusterID
	serverSyncReads        uint32 // 0: kernel default
	payload                int    // message size for echo/stream
	accounts               int    // bank account count (0: not a bank)
	auditAccounts          int    // balances read back and compared at the end
	oneWay                 bool   // latency ends at the peer's handler entry
	crashEvery             int    // >0: failover campaign period, in acknowledged ops
	liveCrash              bool   // crash without first parking the teller
}

var workloads = []*workloadSpec{
	{
		name: "echo_ft",
		why:  "64 B ping-pong between backed-up processes: batch size 1, so per-message kernel cost (outgoing queue, dispatch, wake-up) and the three-way FT roles are nearly all of the time",
		ops:  12000, warm: 1200,
		serverProg: "bench-echo-server", clientProg: "bench-echo-client",
		serverBackup: 0, clientBackup: 3, payload: 64,
	},
	{
		name: "echo_noft",
		why:  "the same ping-pong with no backups: save, count, sync and pager do nothing, so an FT-path change must leave it flat while a wake-up or dispatch change moves both",
		ops:  16000, warm: 1600,
		serverProg: "bench-echo-server", clientProg: "bench-echo-client",
		serverBackup: core.NoBackup, clientBackup: core.NoBackup, payload: 64,
	},
	{
		name: "stream_ft",
		why:  "one-way 1 KiB stream, 128 in flight, ack per 64: wake-ups are amortised, so tx batching, the bus slab copy, PopAll and backpressure set the rate",
		ops:  40000, warm: 4000,
		serverProg: "bench-stream-sink", clientProg: "bench-stream-producer",
		serverBackup: 0, clientBackup: 3, payload: 1024, oneWay: true,
	},
	{
		name: "bank_sync",
		why:  "4096-account bank syncing every 8 reads: memory (KV flush, dirty capture), pager and the kernel sync path do most of the work, the message path little",
		ops:  1000, warm: 100,
		serverProg: "bank-server", clientProg: "bench-teller",
		serverBackup: 3, clientBackup: 0, serverSyncReads: 8,
		accounts: 4096, auditAccounts: 256,
	},
	{
		name: "failover",
		why:  "64-account bank whose primary's cluster is crashed and repaired again and again under a running teller: recovery, roll-forward, suppression and core.Repair do the work",
		ops:  5000, warm: 500,
		serverProg: "bank-server", clientProg: "bench-teller",
		serverBackup: 3, clientBackup: 0,
		accounts: 64, auditAccounts: 64, crashEvery: 50,
	},
	{
		name: "failover_live",
		why:  "failover without parking the teller or settling first: the crash lands mid-request or mid-sync and shows the seed's exactly-once divergences, so it is not gated",
		ops:  5000, warm: 500,
		serverProg: "bank-server", clientProg: "bench-teller",
		serverBackup: 3, clientBackup: 0,
		accounts: 64, auditAccounts: 64, crashEvery: 50, liveCrash: true,
	},
}

// gatedWorkloads is how many leading entries of workloads BENCHMARK.json
// lists; the rest run only when named with -workload.
const gatedWorkloads = 5

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	bankInitBalance = 1000
	bankAmount      = 7
)

// repResult is what one repetition measured. values holds every metric the
// repetition itself can compute, keyed by metric name; the traced stages
// are joined afterwards from events.
type repResult struct {
	values    map[string]float64
	attempted int
	failed    int
	samples   int // latency samples behind lat_p50_us / lat_p99_us
	notes     []string

	// Kept for the stage join of a traced repetition.
	probe     *probe
	events    []stamped
	clientPID types.PID
	serverPID types.PID
	oneWay    bool
	firstOp   int
}

// memMark is the allocator and counter state at one edge of the measured
// window.
type memMark struct {
	ms runtime.MemStats
	c  trace.Snapshot
}

func mark(sys *core.System) *memMark {
	m := &memMark{c: sys.Metrics().Snapshot()}
	runtime.ReadMemStats(&m.ms)
	return m
}

// runRep boots a fresh system, runs one repetition of w and tears it down.
// tr is nil for an untraced repetition.
func runRep(w *workloadSpec, seed uint64, scale float64, tr *tracer) (*repResult, error) {
	ops := scaled(w.ops, scale)
	warm := scaled(w.warm, scale)
	total := warm + ops
	if w.crashEvery > 0 {
		// The campaign needs whole cycles on both sides of the warm mark.
		warm = (warm + w.crashEvery - 1) / w.crashEvery * w.crashEvery
		total = warm + ops
	}

	runtime.GC()
	calib := calibrate()

	clock := monoClock{base: time.Now()}
	pr := newProbe(clock, seed, total, warm, w.accounts == 0, tr != nil)
	pr.balances = make([]int64, w.auditAccounts)
	pr.crashEvery = w.crashEvery
	pr.quiesce = w.crashEvery > 0 && !w.liveCrash
	reg := guest.NewRegistry()
	registerGuests(reg, pr)

	res := &repResult{values: map[string]float64{}, probe: pr, oneWay: w.oneWay, firstOp: warm}
	v := res.values
	v["bench.calib_ns_per_iter"] = calib

	opts := core.Options{Clusters: clusters, Clock: clock}
	if tr != nil {
		opts.EventLogLimit = 1024 // the observer sees every event; the ring is not read
	}
	t0 := clock.Now()
	sys, err := core.New(opts, reg)
	if err != nil {
		return nil, err
	}
	tBoot := clock.Now()
	stopped := false
	defer func() {
		if !stopped {
			sys.Stop()
		}
	}()
	if tr != nil {
		tr.attach(sys.EventLog())
	}

	// The guests set the marks; the driver reads them after pr.done, or on
	// its own if the repetition is abandoned, hence the atomics.
	var warmAt, lastAt atomic.Pointer[memMark]
	pr.onWarm = func() { warmAt.Store(mark(sys)) }
	pr.onLast = func() { lastAt.Store(mark(sys)) }

	serverArgs := w.name
	clientArgs := fmt.Sprintf("%s %d", w.name, w.payload)
	plan := workload.TxnPlan{Accounts: w.accounts, Txns: total, Amount: bankAmount, Seed: seed}
	if w.accounts > 0 {
		serverArgs = fmt.Sprintf("%s %d %d 0", w.name, w.accounts, bankInitBalance)
		clientArgs = fmt.Sprintf("%s %s", w.name, plan.Encode())
	}
	tSpawn := clock.Now()
	res.serverPID, err = sys.Spawn(w.serverProg, []byte(serverArgs), core.SpawnConfig{
		Cluster: serverCluster, BackupCluster: w.serverBackup, SyncReads: w.serverSyncReads,
	})
	if err != nil {
		return nil, err
	}
	res.clientPID, err = sys.Spawn(w.clientProg, []byte(clientArgs), core.SpawnConfig{
		Cluster: clientCluster, BackupCluster: w.clientBackup,
	})
	if err != nil {
		return nil, err
	}
	v["core.spawn_us"] = float64(clock.Now()-tSpawn) / 2 / 1e3
	v["core.boot_us"] = float64(tBoot-t0) / 1e3

	peakG := runtime.NumGoroutine()
	var campaign *campaignResult
	campaignDone := make(chan struct{})
	if w.crashEvery > 0 {
		go func() {
			defer close(campaignDone)
			campaign = runCampaign(sys, pr, res.serverPID)
		}()
	} else {
		close(campaignDone)
	}

	// Wait for the last operation, giving up after noProgress without one.
	stuck := false
	last := int64(-1)
	watchdog := time.NewTicker(noProgress)
wait:
	for {
		select {
		case <-pr.done:
			break wait
		case <-watchdog.C:
			if a := pr.acked.Load(); a == last {
				stuck = true
				break wait
			} else {
				last = a
			}
		}
	}
	watchdog.Stop()
	warmMark, lastMark := warmAt.Load(), lastAt.Load()
	if lastMark == nil {
		lastMark = mark(sys)
	}
	if g := runtime.NumGoroutine(); g > peakG {
		peakG = g
	}
	pr.finish() // releases the campaign if the repetition was abandoned
	<-campaignDone
	guestErrs := sys.GuestErrors()
	if tr != nil {
		res.events = tr.detach(sys.EventLog())
	}
	tStop := clock.Now()
	sys.Stop()
	stopped = true
	v["core.stop_us"] = float64(clock.Now()-tStop) / 1e3

	acked := int(pr.acked.Load())
	if acked == 0 || warmMark == nil || acked <= warm {
		return nil, fmt.Errorf("%s: no measured operation completed (acked %d of %d, guest errors %v)", w.name, acked, total, guestErrs)
	}
	v["setup_s"] = float64(pr.writeStart[0]-t0) / 1e9

	// Operation accounting. Every measured op is attempted; it fails if it
	// never completed, was answered wrongly, or the final audit disagrees
	// with the fault-free reference.
	res.attempted = ops
	failed := total - acked
	failed += int(pr.wrong.Load() + pr.duplicates.Load() + pr.phantoms.Load())
	failed += len(guestErrs)
	if stuck {
		res.notes = append(res.notes, fmt.Sprintf("no progress for %v at op %d", noProgress, acked))
	}
	for _, e := range guestErrs {
		res.notes = append(res.notes, "guest error: "+e)
	}
	if w.accounts > 0 && !stuck {
		if n := auditMismatches(pr, plan, w.accounts); n > 0 {
			failed += n
			res.notes = append(res.notes, fmt.Sprintf("final audit: %d mismatches against the fault-free reference", n))
		}
	}
	if failed > ops {
		failed = ops
	}
	res.failed = failed

	// The measured window: ops warm..acked-1.
	endStamp := pr.replyEntry
	if w.oneWay {
		endStamp = pr.peerEntry
	}
	window := float64(endStamp[acked-1] - pr.writeStart[warm])
	done := acked - warm
	lat := make([]int64, 0, done)
	wr := make([]int64, 0, done)
	for i := warm; i < acked; i++ {
		lat = append(lat, endStamp[i]-pr.writeStart[i])
		wr = append(wr, pr.writeEnd[i]-pr.writeStart[i])
	}
	res.samples = len(lat)
	if campaign != nil {
		window -= float64(campaign.metrics(v, pr, warm, acked))
	}
	good := float64(done - res.failed)
	if good < 1 {
		good = 1
	}
	v["ops_per_s"] = good / (window / 1e9)
	v["lat_p50_us"] = nsQuantileUS(lat, 0.50)
	v["lat_p99_us"] = nsQuantileUS(lat, 0.99)
	v["guest.write_call_us"] = nsQuantileUS(wr, 0.50)

	n := float64(done)
	ms0, ms1 := &warmMark.ms, &lastMark.ms
	v["alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	v["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	v["runtime.goroutines_peak"] = float64(peakG)

	counterMetrics(v, lastMark.c.Delta(warmMark.c), n)
	v["kernel.duplicate_replies"] = float64(pr.duplicates.Load())
	v["kernel.phantom_applies"] = float64(pr.phantoms.Load())
	if campaign != nil {
		res.notes = append(res.notes, campaign.notes...)
		if campaign.peakG > peakG {
			v["runtime.goroutines_peak"] = float64(campaign.peakG)
		}
	}
	return res, nil
}

func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// auditMismatches replays the plan on a reference ledger and compares the
// bank's reported total and the balances the teller read back.
func auditMismatches(pr *probe, plan workload.TxnPlan, accounts int) int {
	ref := make([]int64, accounts)
	for i := range ref {
		ref[i] = bankInitBalance
	}
	for i := 0; i < plan.Txns; i++ {
		from, to, amt := plan.Txn(i)
		ref[from] -= int64(amt)
		ref[to] += int64(amt)
	}
	bad := 0
	if pr.auditTotal != int64(accounts)*bankInitBalance {
		bad++
	}
	for i, b := range pr.balances {
		if b != ref[i] {
			bad++
		}
	}
	return bad
}

// counterMetrics derives the C metrics from the trace.Metrics delta over
// the measured window of n operations.
func counterMetrics(v map[string]float64, d trace.Snapshot, n float64) {
	f := func(k string) float64 { return float64(d[k]) }
	v["bus.mean_batch"] = safeDiv(f("bus_batched_messages"), f("bus_batches"))
	v["bus.transmissions_per_op"] = f("bus_transmissions") / n
	v["bus.bytes_per_op"] = f("bus_bytes") / n
	v["bus.deliveries_per_transmission"] = safeDiv(f("bus_deliveries"), f("bus_transmissions"))
	v["bus.inbox_peak"] = f("inbox_peak")
	v["kernel.primary_deliveries_per_op"] = f("primary_deliveries") / n
	v["kernel.backup_saves_per_op"] = f("backup_saves") / n
	v["kernel.sender_counts_per_op"] = f("sender_backup_counts") / n
	v["kernel.syncs_per_kop"] = f("syncs") / n * 1000
	v["kernel.pages_out_per_sync"] = safeDiv(f("pages_out"), f("syncs"))
	v["kernel.messages_discarded_per_sync"] = safeDiv(f("messages_discarded"), f("syncs"))
	v["pager.page_bytes_per_op"] = f("page_bytes") / n
	v["pager.pages_fetched_per_recovery"] = safeDiv(f("pages_fetched"), f("recoveries"))
	v["kernel.recovery_us_per_proc"] = safeDiv(f("recovery_nanos"), f("recoveries")) / 1e3
	v["kernel.replayed_per_recovery"] = safeDiv(f("replayed_messages"), f("recoveries"))
	v["kernel.suppressed_per_recovery"] = safeDiv(f("suppressed_sends"), f("recoveries"))
}

// campaignResult is the driver-side record of one failover campaign.
type campaignResult struct {
	crashAt    []int64 // clock time of each sys.Crash call
	settled    []int64 // time the driver spent settling before it
	crashCall  []int64 // the call's duration
	repairCall []int64
	waitRedun  []int64
	peakG      int
	notes      []string
}

// runCampaign crashes the cluster holding the server primary each time the
// teller reaches a multiple of its crash period, then repairs it and waits
// for full redundancy. If a repair outlasts a period the next crash follows
// it at once.
//
// In the gated workload the teller parks at the threshold and the driver
// first waits for the system to settle (see settle), so that the crash
// finds the server idle: crashes landing inside a sync expose the seed's
// exactly-once divergences (ROADMAP item 1), and a gated workload must be
// one on which no operation fails. failover_live crashes without either.
func runCampaign(sys *core.System, pr *probe, server types.PID) *campaignResult {
	c := &campaignResult{}
	clock := pr.clock
	defer close(pr.resume) // never leave the teller parked
	for {
		select {
		case <-pr.done:
			return c
		case <-pr.wake:
		}
		loc, ok := sys.Directory().Proc(server)
		if !ok {
			c.notes = append(c.notes, "server left the directory")
			return c
		}
		tSettle := clock.Now()
		if pr.quiesce {
			if err := settle(sys); err != nil {
				c.notes = append(c.notes, "pre-crash: "+err.Error())
				return c
			}
		}
		t0 := clock.Now()
		if err := sys.Crash(loc.Cluster); err != nil {
			c.notes = append(c.notes, "crash: "+err.Error())
			return c
		}
		t1 := clock.Now()
		if pr.quiesce {
			pr.resume <- struct{}{}
		}
		err := sys.Repair(loc.Cluster)
		t2 := clock.Now()
		if err == nil {
			err = sys.WaitRedundant(noProgress)
		}
		t3 := clock.Now()
		if err != nil {
			c.notes = append(c.notes, "repair: "+err.Error())
			return c
		}
		c.crashAt = append(c.crashAt, t0)
		c.settled = append(c.settled, t0-tSettle)
		c.crashCall = append(c.crashCall, t1-t0)
		c.repairCall = append(c.repairCall, t2-t1)
		c.waitRedun = append(c.waitRedun, t3-t2)
		if g := runtime.NumGoroutine(); g > c.peakG {
			c.peakG = g
		}
	}
}

// settle returns once the system is fully redundant and has carried no bus
// traffic for two consecutive quiet intervals. With the one client parked,
// that means the server has finished the sync point that follows its last
// reply and the sync has been applied everywhere.
func settle(sys *core.System) error {
	const quiet = 100 * time.Microsecond
	m := sys.Metrics()
	for stable := 0; stable < 2; {
		if err := sys.WaitRedundant(noProgress); err != nil {
			return err
		}
		before := m.BusTransmissions.Load()
		time.Sleep(quiet)
		if m.BusTransmissions.Load() == before {
			stable++
		} else {
			stable = 0
		}
	}
	return nil
}

// metrics computes the failover-only figures over the crashes that fell
// inside the measured window, and returns the time the driver spent
// settling there, which is the bench's own waiting and not service time.
func (c *campaignResult) metrics(v map[string]float64, pr *probe, warm, acked int) (settled int64) {
	replies := pr.replyEntry[:acked]
	tWarm := pr.writeStart[warm]
	var stalls, repairs, crashCalls, repairCalls, waits []int64
	for k, tc := range c.crashAt {
		if tc < tWarm {
			continue
		}
		i := sort.Search(len(replies), func(i int) bool { return replies[i] > tc })
		if i == 0 || i == len(replies) {
			continue
		}
		// The service outage the teller saw. Parked, it has nothing in
		// flight: the outage runs from the crash to the first reply. Live,
		// a reply sent before the crash may still arrive after it, so take
		// the longest gap between replies that overlaps the sys.Crash call.
		stall := replies[i] - tc
		if !pr.quiesce {
			stall = 0
			for tEnd := tc + c.crashCall[k]; i < len(replies); i++ {
				if g := replies[i] - replies[i-1]; g > stall {
					stall = g
				}
				if replies[i] > tEnd {
					break
				}
			}
		}
		settled += c.settled[k]
		stalls = append(stalls, stall)
		repairs = append(repairs, c.repairCall[k]+c.waitRedun[k])
		crashCalls = append(crashCalls, c.crashCall[k])
		repairCalls = append(repairCalls, c.repairCall[k])
		waits = append(waits, c.waitRedun[k])
	}
	v["failover.crash_cycles"] = float64(len(stalls))
	v["stall_p50_us"] = nsQuantileUS(stalls, 0.50)
	v["stall_p90_us"] = nsQuantileUS(stalls, 0.90)
	v["repair_p50_us"] = nsQuantileUS(repairs, 0.50)
	v["core.crash_call_us"] = nsQuantileUS(crashCalls, 0.50)
	v["core.repair_call_us"] = nsQuantileUS(repairCalls, 0.50)
	v["core.wait_redundant_us"] = nsQuantileUS(waits, 0.50)
	return settled
}

// calibrate times a fixed pure-CPU loop. It runs beside every repetition so
// that a noisy or throttled machine shows in the record next to the numbers
// it distorted.
func calibrate() float64 {
	const iters = 500_000
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t)
	calibSink = x
	return float64(d.Nanoseconds()) / iters
}

var calibSink uint64
