package harness

import (
	"fmt"
	"sync"
	"time"

	"auragen/internal/bus"
	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// NewSystem builds a system with every workload and harness guest
// registered.
func NewSystem(clusters int, syncReads uint32) (*core.System, error) {
	reg := guest.NewRegistry()
	workload.Register(reg)
	RegisterGuests(reg)
	return core.New(core.Options{
		Clusters:  clusters,
		SyncReads: syncReads,
		SyncTicks: 1 << 40, // read-count-triggered syncs only, unless asked
	}, reg)
}

// Row is one table row of an experiment: a parameter point and its
// measurements. String renders "k=v" pairs in insertion order.
//
// NsPerOp and Metrics are the machine-readable half (aurobench -json):
// the headline per-operation latency in nanoseconds (0 when the
// experiment has no timing axis) and the delta of the shared metrics
// snapshot over the measured interval (nil when not captured).
type Row struct {
	Keys    []string
	Vals    map[string]string
	NsPerOp float64
	Metrics trace.Snapshot
}

// NewRow builds an empty row.
func NewRow() *Row { return &Row{Vals: make(map[string]string)} }

// Add appends one measurement.
func (r *Row) Add(k string, format string, v ...any) *Row {
	if _, dup := r.Vals[k]; !dup {
		r.Keys = append(r.Keys, k)
	}
	r.Vals[k] = fmt.Sprintf(format, v...)
	return r
}

func (r *Row) String() string {
	out := ""
	for i, k := range r.Keys {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%s", k, r.Vals[k])
	}
	return out
}

// E1ThreeWayDelivery measures per-message cost of an echo round trip with
// fault tolerance on (three-way routes) versus off (single destination),
// reproducing §8.1: three-way delivery costs one bus transmission per
// message and the extra copies are executive-processor work.
func E1ThreeWayDelivery(msgs, size int, ft bool) (*Row, error) {
	// Four clusters so the destination's backup and the sender's backup
	// are distinct: a data message then reaches three clusters.
	sys, err := NewSystem(4, 1<<30) // effectively no syncs: isolate delivery
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	backup := core.NoBackup
	if ft {
		backup = types.ClusterID(0)
	}
	if _, err := sys.Spawn("echo-server", []byte("e1"), core.SpawnConfig{Cluster: 2, BackupCluster: backup}); err != nil {
		return nil, err
	}
	clientBackup := core.NoBackup
	if ft {
		clientBackup = types.ClusterID(3)
	}
	before := sys.Metrics().Snapshot()
	start := time.Now()
	pid, err := sys.Spawn("echo-client", []byte(fmt.Sprintf("e1 %d %d", msgs, size)), core.SpawnConfig{Cluster: 1, BackupCluster: clientBackup})
	if err != nil {
		return nil, err
	}
	if err := sys.WaitExit(pid, 120*time.Second); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	d := sys.Metrics().Snapshot().Delta(before)

	row := NewRow().
		Add("ft", "%v", ft).
		Add("size", "%dB", size).
		Add("msgs", "%d", msgs).
		Add("us_per_msg", "%.2f", float64(elapsed.Microseconds())/float64(2*msgs)).
		Add("transmissions_per_msg", "%.2f", float64(d["bus_transmissions"])/float64(2*msgs)).
		Add("deliveries_per_transmission", "%.2f", float64(d["bus_deliveries"])/float64(d["bus_transmissions"]))
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(2*msgs)
	row.Metrics = d
	return row, nil
}

// E2SyncVsCheckpoint compares the message-based incremental sync against
// the §2 explicit full checkpoint, holding the workload fixed while the
// resident state grows.
func E2SyncVsCheckpoint(statePages, txns int, syncReads uint32, fullCheckpoint bool) (*Row, error) {
	sys, err := NewSystem(3, syncReads)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	// A bank whose account table spans ~statePages pages: each account
	// costs ~24 bytes in the heap image, so scale the account count.
	pageSize := 1024
	accounts := statePages * pageSize / 24
	if accounts < 8 {
		accounts = 8
	}
	serverArgs := fmt.Sprintf("e2 %d %d 1", accounts, 1000)
	if _, err := sys.Spawn("bank-server", []byte(serverArgs), core.SpawnConfig{
		Cluster:        2,
		BackupCluster:  0,
		SyncReads:      syncReads,
		FullCheckpoint: fullCheckpoint,
	}); err != nil {
		return nil, err
	}
	plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 3, Seed: 7}
	before := sys.Metrics().Snapshot()
	start := time.Now()
	pid, err := sys.Spawn("teller", []byte(fmt.Sprintf("e2 -1 %s", plan.Encode())), core.SpawnConfig{Cluster: 1})
	if err != nil {
		return nil, err
	}
	if err := sys.WaitExit(pid, 300*time.Second); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	d := sys.Metrics().Snapshot().Delta(before)

	mode := "auragen-dirty"
	if fullCheckpoint {
		mode = "full-checkpoint"
	}
	row := NewRow().
		Add("mode", "%s", mode).
		Add("state_pages", "%d", statePages).
		Add("sync_every", "%d", syncReads).
		Add("txns", "%d", txns).
		Add("us_per_txn", "%.2f", float64(elapsed.Microseconds())/float64(txns)).
		Add("pages_per_sync", "%.1f", safeDiv(float64(d["pages_out"]), float64(d["syncs"]))).
		Add("page_kb_total", "%d", d["page_bytes"]/1024).
		Add("syncs", "%d", d["syncs"])
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(txns)
	row.Metrics = d
	return row, nil
}

// E3SyncCost measures sync overhead as a function of the pages dirtied per
// interval (§8.3: the primary is interrupted only long enough to enqueue
// its dirty pages and the sync message).
func E3SyncCost(dirtyPages, requests int, syncReads uint32) (*Row, error) {
	sys, err := NewSystem(3, syncReads)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	if _, err := sys.Spawn("dirtier", []byte(fmt.Sprintf("e3 %d", dirtyPages)), core.SpawnConfig{
		Cluster: 2, BackupCluster: 0, SyncReads: syncReads,
	}); err != nil {
		return nil, err
	}
	before := sys.Metrics().Snapshot()
	start := time.Now()
	pid, err := sys.Spawn("pulser", []byte(fmt.Sprintf("e3 %d", requests)), core.SpawnConfig{Cluster: 1})
	if err != nil {
		return nil, err
	}
	if err := sys.WaitExit(pid, 300*time.Second); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	d := sys.Metrics().Snapshot().Delta(before)

	row := NewRow().
		Add("dirty_pages", "%d", dirtyPages).
		Add("sync_every", "%d", syncReads).
		Add("requests", "%d", requests).
		Add("us_per_req", "%.2f", float64(elapsed.Microseconds())/float64(requests)).
		Add("pages_per_sync", "%.1f", safeDiv(float64(d["pages_out"]), float64(d["syncs"]))).
		Add("syncs", "%d", d["syncs"])
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(requests)
	row.Metrics = d
	return row, nil
}

// E4DeferredBackup measures the §7.7/§8.2 deferral win: short-lived forked
// children never acquire a real backup (only a birth notice), versus
// eagerly-created head-of-family processes doing the same work.
func E4DeferredBackup(children int, eager bool) (*Row, error) {
	sys, err := NewSystem(3, 8)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	before := sys.Metrics().Snapshot()
	start := time.Now()
	if eager {
		// Eager comparator: every worker is a head of family, whose
		// backup shell is created when the primary is created (§7.7).
		var pids []types.PID
		for i := 0; i < children; i++ {
			pid, err := sys.Spawn("short-lived", nil, core.SpawnConfig{Cluster: 2, BackupCluster: 0})
			if err != nil {
				return nil, err
			}
			pids = append(pids, pid)
		}
		for _, pid := range pids {
			if err := sys.WaitExit(pid, 60*time.Second); err != nil {
				return nil, err
			}
		}
		sys.Settle(5 * time.Second)
	} else {
		parent, err := sys.Spawn("forker", []byte(fmt.Sprint(children)), core.SpawnConfig{Cluster: 2, BackupCluster: 0})
		if err != nil {
			return nil, err
		}
		if err := sys.WaitExit(parent, 60*time.Second); err != nil {
			return nil, err
		}
		sys.Settle(5 * time.Second)
	}
	elapsed := time.Since(start)
	d := sys.Metrics().Snapshot().Delta(before)

	mode := "fork-deferred"
	if eager {
		mode = "eager-headoffamily"
	}
	row := NewRow().
		Add("mode", "%s", mode).
		Add("children", "%d", children).
		Add("us_per_child", "%.1f", float64(elapsed.Microseconds())/float64(children)).
		Add("birth_notices", "%d", d["birth_notices"]).
		Add("backups_created", "%d", d["backups_created"]).
		Add("backups_avoided", "%d", d["backups_avoided"])
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(children)
	row.Metrics = d
	return row, nil
}

// E5Recovery measures recovery latency and roll-forward length as a
// function of the sync interval (work since last sync) and the number of
// processes lost with the cluster (§6, §8.4).
func E5Recovery(syncReads uint32, procs, txnsPerProc int) (*Row, error) {
	sys, err := NewSystem(3, syncReads)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	var clients []types.PID
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("e5-%d", i)
		if _, err := sys.Spawn("echo-server", []byte(name), core.SpawnConfig{
			Cluster: 2, BackupCluster: 0, SyncReads: syncReads,
		}); err != nil {
			return nil, err
		}
		pid, err := sys.Spawn("echo-client", []byte(fmt.Sprintf("%s %d 64", name, txnsPerProc)), core.SpawnConfig{Cluster: 1})
		if err != nil {
			return nil, err
		}
		clients = append(clients, pid)
	}

	// Crash the server cluster mid-run.
	deadline := time.Now().Add(30 * time.Second)
	target := uint64(procs * txnsPerProc / 2)
	for sys.Metrics().PrimaryDeliveries.Load() < target && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	before := sys.Metrics().Snapshot()
	if err := sys.Crash(2); err != nil {
		return nil, err
	}
	for _, pid := range clients {
		if err := sys.WaitExit(pid, 300*time.Second); err != nil {
			return nil, err
		}
	}
	d := sys.Metrics().Snapshot().Delta(before)

	row := NewRow().
		Add("sync_every", "%d", syncReads).
		Add("procs", "%d", procs).
		Add("recoveries", "%d", d["recoveries"]).
		Add("replayed_msgs", "%d", d["replayed_messages"]).
		Add("suppressed_sends", "%d", d["suppressed_sends"]).
		Add("pages_fetched", "%d", d["pages_fetched"]).
		Add("recovery_ms_total", "%.2f", float64(d["recovery_nanos"])/1e6).
		Add("recovery_ms_per_proc", "%.3f", safeDiv(float64(d["recovery_nanos"])/1e6, float64(d["recoveries"])))
	row.NsPerOp = safeDiv(float64(d["recovery_nanos"]), float64(d["recoveries"]))
	row.Metrics = d
	return row, nil
}

// E7BackupModes runs one crash against a process in each backup mode and
// reports whether (and where) a new backup exists afterwards (§7.3).
func E7BackupModes(mode types.BackupMode) (*Row, error) {
	sys, err := NewSystem(4, 8)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	if _, err := sys.Spawn("echo-server", []byte("e7"), core.SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: mode,
	}); err != nil {
		return nil, err
	}
	pid, err := sys.Spawn("echo-client", []byte("e7 2000 64"), core.SpawnConfig{Cluster: 1})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < 500 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	before := sys.Metrics().Snapshot()
	start := time.Now()
	if err := sys.Crash(2); err != nil {
		return nil, err
	}
	if err := sys.WaitExit(pid, 120*time.Second); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	d := sys.Metrics().Snapshot().Delta(before)

	// Find the server (its pid is the first user pid).
	newBackup := "none"
	for _, p := range sys.Directory().Procs() {
		loc, _ := sys.Directory().Proc(p)
		if loc.Cluster == 3 && loc.BackupCluster != types.NoCluster {
			newBackup = loc.BackupCluster.String()
		}
	}
	row := NewRow().
		Add("mode", "%s", mode).
		Add("survived", "%v", true).
		Add("new_backup", "%s", newBackup).
		Add("backups_created_after_crash", "%d", d["backups_created"]).
		Add("ms_to_finish_after_crash", "%.1f", float64(elapsed.Microseconds())/1000)
	row.NsPerOp = float64(elapsed.Nanoseconds())
	row.Metrics = d
	return row, nil
}

// E11WindowOfVulnerability measures the repair lifecycle's exposure window
// per backup mode: how many trace events (and how much wall time) elapse
// between a cluster crash and the redundancy-restored oracle coming back
// clean after core.Repair — the stretch during which a second failure of the
// wrong cluster would be fatal. The §7.3 modes differ in when re-backup
// happens: fullbacks re-establish online at crash time, so repair finds
// little left to do; quarterbacks and halfbacks run unbacked until the
// repaired cluster returns to service.
func E11WindowOfVulnerability(mode types.BackupMode) (*Row, error) {
	reg := guest.NewRegistry()
	workload.Register(reg)
	RegisterGuests(reg)
	sys, err := core.New(core.Options{
		Clusters:      4,
		SyncReads:     8,
		SyncTicks:     1 << 40,
		EventLogLimit: 1 << 18,
	}, reg)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	if _, err := sys.Spawn("echo-server", []byte("e11"), core.SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: mode,
	}); err != nil {
		return nil, err
	}
	pid, err := sys.Spawn("echo-client", []byte("e11 2000 64"), core.SpawnConfig{Cluster: 1})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < 500 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}

	evAt := func() uint64 { return uint64(sys.EventLog().Len()) + sys.EventLog().Dropped() }
	before := sys.Metrics().Snapshot()
	atCrash := evAt()
	start := time.Now()
	if err := sys.Crash(2); err != nil {
		return nil, err
	}
	if err := sys.WaitExit(pid, 120*time.Second); err != nil {
		return nil, err
	}
	if err := sys.Repair(2); err != nil {
		return nil, err
	}
	if err := sys.WaitRedundant(60 * time.Second); err != nil {
		return nil, fmt.Errorf("E11 %s: %w", mode, err)
	}
	elapsed := time.Since(start)
	atRedundant := evAt()
	d := sys.Metrics().Snapshot().Delta(before)

	row := NewRow().
		Add("mode", "%s", mode).
		Add("window_events", "%d", atRedundant-atCrash).
		Add("window_ms", "%.1f", float64(elapsed.Microseconds())/1000).
		Add("backups_created", "%d", d["backups_created"]).
		Add("syncs", "%d", d["syncs"])
	row.NsPerOp = float64(elapsed.Nanoseconds())
	row.Metrics = d
	return row, nil
}

// E9BusAtomicity measures raw bus multicast throughput by target count,
// demonstrating the §5.1/§8.1 claim that fan-out costs no extra
// transmissions.
func E9BusAtomicity(targets, msgs int) *Row {
	obs := core.NewObservability(0)
	m := obs.Metrics
	b := core.NewBareBus(obs)
	inboxes := make([]*bus.Inbox, targets)
	for i := 0; i < targets; i++ {
		inboxes[i] = b.Attach(types.ClusterID(i))
	}
	route := types.Route{Dst: 0, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	if targets > 1 {
		route.DstBackup = 1
	}
	if targets > 2 {
		route.SrcBackup = 2
	}
	payload := make([]byte, 256)
	start := time.Now()
	for i := 0; i < msgs; i++ {
		_, _ = b.BroadcastBatch([]*types.Message{{Kind: types.KindData, Route: route, Payload: payload}})
	}
	elapsed := time.Since(start)
	// Deliveries are synchronous: every one is already queued.
	total := 0
	for i := 0; i < targets; i++ {
		total += inboxes[i].Backlog()
		b.Detach(types.ClusterID(i))
	}
	row := NewRow().
		Add("targets", "%d", targets).
		Add("msgs", "%d", msgs).
		Add("ns_per_multicast", "%.0f", float64(elapsed.Nanoseconds())/float64(msgs)).
		Add("transmissions", "%d", m.BusTransmissions.Load()).
		Add("deliveries", "%d", total)
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(msgs)
	row.Metrics = m.Snapshot()
	return row
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// busThroughputRig attaches three drained inboxes to a bare bus and
// returns the bus, the metrics sink, and a stop function that detaches the
// inboxes and joins the consumers. Consumers drain continuously, modeling
// executives that keep pace, so the measurement is the send path, not
// queue growth.
func busThroughputRig() (*bus.Bus, *trace.Metrics, func()) {
	obs := core.NewObservability(0)
	b := core.NewBareBus(obs)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		in := b.Attach(types.ClusterID(i))
		// Bound the queue so the rig's premise holds: producers that
		// outrun the drain block instead of growing an unbounded backlog,
		// keeping the measurement about the send path rather than about
		// garbage-collecting queued messages.
		in.SetLimit(8192)
		wg.Add(1)
		go func(in *bus.Inbox) {
			defer wg.Done()
			var buf []types.Message
			for {
				ms, ok := in.PopAll(buf)
				if !ok {
					return
				}
				buf = ms
			}
		}(in)
	}
	stop := func() {
		for i := 0; i < 3; i++ {
			b.Detach(types.ClusterID(i))
		}
		wg.Wait()
	}
	return b, obs.Metrics, stop
}

// newSendRing preallocates n (at least 1) reusable data messages sharing
// one payload buffer, for the throughput producers.
func newSendRing(n int, route types.Route, payload []byte) []*types.Message {
	if n < 1 {
		n = 1
	}
	backing := make([]types.Message, n)
	ring := make([]*types.Message, n)
	for i := range backing {
		backing[i] = types.Message{Kind: types.KindData, Route: route, Payload: payload}
		ring[i] = &backing[i]
	}
	return ring
}

// throughputRoute returns the three-way FT route or a single-destination
// route (fault tolerance off).
func throughputRoute(ft bool) types.Route {
	if ft {
		return types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}
	}
	return types.Route{Dst: 0, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
}

// E12BusThroughput measures single-producer send throughput through the
// bus ordering critical section: `msgs` messages of `size` bytes offered
// in batches of `batch` (batch=1 is the per-message baseline: a batch of
// one). This is the microbenchmark behind batching: one critical-section
// acquisition per batch instead of per message.
func E12BusThroughput(msgs, size, batch int) *Row {
	b, m, stop := busThroughputRig()
	route := throughputRoute(true)
	payload := make([]byte, size)
	// The producer reuses its message structs and payload buffer across
	// sends, modeling the executive handing over its outgoing queue: the
	// bus copies everything it delivers inside the critical section, so
	// the sender retains ownership — the same contract the kernel's
	// pooled wire writers rely on.
	tmpl := newSendRing(batch, route, payload)
	start := time.Now()
	for off := 0; off < msgs; off += len(tmpl) {
		n := len(tmpl)
		if msgs-off < n {
			n = msgs - off
		}
		_, _ = b.BroadcastBatch(tmpl[:n])
	}
	elapsed := time.Since(start)
	stop()
	row := NewRow().
		Add("msgs", "%d", msgs).
		Add("size", "%dB", size).
		Add("batch", "%d", batch).
		Add("msgs_per_sec", "%.0f", safeDiv(float64(msgs), elapsed.Seconds())).
		Add("ns_per_msg", "%.0f", safeDiv(float64(elapsed.Nanoseconds()), float64(msgs))).
		Add("bus_batches", "%d", m.BusBatches.Load()).
		Add("inbox_peak", "%d", m.InboxPeak.Load())
	row.NsPerOp = safeDiv(float64(elapsed.Nanoseconds()), float64(msgs))
	row.Metrics = m.Snapshot()
	return row
}

// E13Saturation is the multi-producer saturation point: `producers`
// goroutines each push `msgsPerProducer` messages of `size` bytes in
// batches of `batch`, with fault tolerance (three-way routes) on or off.
// Contention for the ordering critical section is exactly what batching
// amortizes, so the batched speedup GROWS with producer count.
func E13Saturation(producers, msgsPerProducer, size, batch int, ft bool) *Row {
	b, m, stop := busThroughputRig()
	route := throughputRoute(ft)
	payload := make([]byte, size)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-producer reusable messages; see E12BusThroughput.
			tmpl := newSendRing(batch, route, payload)
			for off := 0; off < msgsPerProducer; off += len(tmpl) {
				n := len(tmpl)
				if msgsPerProducer-off < n {
					n = msgsPerProducer - off
				}
				_, _ = b.BroadcastBatch(tmpl[:n])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop()
	total := producers * msgsPerProducer
	row := NewRow().
		Add("producers", "%d", producers).
		Add("msgs", "%d", total).
		Add("size", "%dB", size).
		Add("batch", "%d", batch).
		Add("ft", "%v", ft).
		Add("msgs_per_sec", "%.0f", safeDiv(float64(total), elapsed.Seconds())).
		Add("ns_per_msg", "%.0f", safeDiv(float64(elapsed.Nanoseconds()), float64(total))).
		Add("inbox_peak", "%d", m.InboxPeak.Load())
	row.NsPerOp = safeDiv(float64(elapsed.Nanoseconds()), float64(total))
	row.Metrics = m.Snapshot()
	return row
}
