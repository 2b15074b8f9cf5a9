package main

import (
	"fmt"
	"io"
	"sort"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// stamped is one event kept from the system's event log: the fields the
// stage join needs and nothing else, so a repetition's worth fits in a
// slice sized before the run.
type stamped struct {
	when    int64
	msgID   uint64
	arg     uint64
	pid     types.PID
	kind    trace.EventKind
	cluster types.ClusterID
}

// tracer collects events through EventLog.SetObserver. The observer runs
// under the log's mutex inside the component that logged, so it only
// filters and appends.
type tracer struct {
	events []stamped
}

func newTracer(capacity int) *tracer { return &tracer{events: make([]stamped, 0, capacity)} }

func (t *tracer) attach(l *trace.EventLog) {
	t.events = t.events[:0]
	l.SetObserver(func(e trace.Event) {
		switch e.Kind {
		case trace.EvTransmit, trace.EvReceive, trace.EvDeliver, trace.EvSave, trace.EvCount:
			if e.MsgKind != types.KindData {
				return
			}
		case trace.EvSync, trace.EvSyncApply, trace.EvCrash, trace.EvRecover:
		default:
			return
		}
		t.events = append(t.events, stamped{
			when: e.When, msgID: e.MsgID, arg: e.Arg, pid: e.PID, kind: e.Kind, cluster: e.Cluster,
		})
	})
}

func (t *tracer) detach(l *trace.EventLog) []stamped {
	l.SetObserver(nil)
	return t.events
}

// Stage names, in path order. A round trip pays the four message stages
// twice (request leg, reply leg) around the responder's handler; a one-way
// stream pays them once.
const (
	stWriteToTransmit  = "kernel.write_to_transmit_us"
	stTransmitToRecv   = "bus.transmit_to_receive_us"
	stReceiveToDeliver = "kernel.receive_to_deliver_us"
	stDeliverToRead    = "kernel.deliver_to_read_us"
	stResponder        = "responder.read_to_write_us"
)

// span is one layer-boundary interval of one operation: the bench's
// in-memory trace record. op identifies the request the span belongs to and
// leg which message of it (0 request, 1 reply); the parent of every span is
// the operation's end-to-end interval.
type span struct {
	stage      string
	op, leg    int
	start, end int64
}

// stageTable is the outcome of joining one traced repetition.
type stageTable struct {
	spans   []span
	sampled int // measured operations looked at
	joined  int // operations whose every stage was found
	latP50  float64
	rows    []stageRow
	values  map[string]float64 // T metrics
}

type stageRow struct {
	stage  string
	perOp  int // times the stage is paid per operation
	median float64
}

type txKey struct {
	hash uint64
	pid  types.PID
}

type rxKey struct {
	msgID   uint64
	cluster types.ClusterID
}

// joinStages matches the probe's stamps with the collected events.
//
// A request is found by (payload hash, sender PID) among EvTransmit events
// at or after its write-call start — payload hashes may repeat on the bank
// workloads, the time order of a closed loop disambiguates. The message ID
// minted there keys the EvReceive at the delivering cluster and the
// EvDeliver; the peer's handler-entry stamp closes the leg.
func joinStages(r *repResult) *stageTable {
	pr := r.probe
	acked := int(pr.acked.Load())
	tab := &stageTable{values: map[string]float64{}}

	tx := map[txKey][]int{} // event indexes, in time order
	rx := map[rxKey]int64{}
	deliver := map[uint64]stamped{}
	var saves, counts, syncs, applies, crashes, recovers []stamped
	for i, e := range r.events {
		switch e.kind {
		case trace.EvTransmit:
			k := txKey{e.arg, e.pid}
			tx[k] = append(tx[k], i)
		case trace.EvReceive:
			rx[rxKey{e.msgID, e.cluster}] = e.when
		case trace.EvDeliver:
			deliver[e.msgID] = e
		case trace.EvSave:
			saves = append(saves, e)
		case trace.EvCount:
			counts = append(counts, e)
		case trace.EvSync:
			syncs = append(syncs, e)
		case trace.EvSyncApply:
			applies = append(applies, e)
		case trace.EvCrash:
			crashes = append(crashes, e)
		case trace.EvRecover:
			recovers = append(recovers, e)
		default:
			// The observer keeps no other kind.
		}
	}

	ix := eventIndex{events: r.events, tx: tx, rx: rx, deliver: deliver}
	var lat []int64
	for i := r.firstOp; i < acked; i++ {
		tab.sampled++
		w0, w1 := pr.writeStart[i], pr.replyEntry[i]
		switch {
		case r.oneWay:
			w1 = pr.peerEntry[i]
			if m, ok := ix.transit(pr.reqHash[i], r.clientPID, w0, w1); ok {
				tab.spans = append(tab.spans, m.spans(i, 0, w0, w1)...)
				tab.joined++
			}
		case pr.peerEntry != nil:
			// Bench responder: its own stamps split the middle.
			req, ok1 := ix.transit(pr.reqHash[i], r.clientPID, w0, pr.peerEntry[i])
			rep, ok2 := ix.transit(pr.repHash[i], r.serverPID, pr.peerWrite[i], w1)
			if ok1 && ok2 {
				tab.spans = append(tab.spans, req.spans(i, 0, w0, pr.peerEntry[i])...)
				tab.spans = append(tab.spans, span{stResponder, i, 0, pr.peerEntry[i], pr.peerWrite[i]})
				tab.spans = append(tab.spans, rep.spans(i, 1, pr.peerWrite[i], w1)...)
				tab.joined++
			}
		default:
			// workload.BankServer carries no stamps: the request leg ends
			// at its EvDeliver and the responder stage runs from there to
			// the reply's EvTransmit.
			req, ok1 := ix.transit(pr.reqHash[i], r.clientPID, w0, w1)
			rep, ok2 := ix.transit(pr.repHash[i], r.serverPID, req.delivered, w1)
			if ok1 && ok2 {
				tab.spans = append(tab.spans, req.spans(i, 0, w0, req.delivered)[:3]...)
				tab.spans = append(tab.spans, span{stResponder, i, 0, req.delivered, rep.transmitted})
				tab.spans = append(tab.spans, rep.spans(i, 1, rep.transmitted, w1)[1:]...)
				tab.joined++
			}
		}
		lat = append(lat, w1-w0)
	}
	tab.latP50 = nsQuantileUS(lat, 0.5)

	// Stage medians, and how often each is paid per operation.
	byStage := map[string][]int64{}
	for _, s := range tab.spans {
		byStage[s.stage] = append(byStage[s.stage], s.end-s.start)
	}
	sum := 0.0
	for _, st := range []string{stWriteToTransmit, stTransmitToRecv, stReceiveToDeliver, stDeliverToRead, stResponder} {
		d := byStage[st]
		if len(d) == 0 {
			continue
		}
		row := stageRow{stage: st, median: nsQuantileUS(d, 0.5)}
		if tab.joined > 0 {
			row.perOp = (len(d) + tab.joined/2) / tab.joined
		}
		tab.rows = append(tab.rows, row)
		sum += row.median * float64(row.perOp)
		if st != stResponder {
			tab.values[st] = row.median
		}
	}
	tab.values["bench.trace_join_pct"] = 100 * safeDiv(float64(tab.joined), float64(tab.sampled))
	tab.values["bench.budget_residual_pct"] = 100 * safeDiv(tab.latP50-sum, tab.latP50)

	// Off-path FT roles: how long after the bus handed the copy over the
	// destination's backup saved it, and the sender's backup counted it.
	since := func(evs []stamped) float64 {
		var d []int64
		for _, e := range evs {
			if recv, ok := rx[rxKey{e.msgID, e.cluster}]; ok {
				d = append(d, e.when-recv)
			}
		}
		return nsQuantileUS(d, 0.5)
	}
	tab.values["kernel.receive_to_save_us"] = since(saves)
	tab.values["kernel.receive_to_count_us"] = since(counts)

	// Sync: primary enqueues (EvSync) → backup kernel applies (EvSyncApply),
	// matched by process and epoch.
	type syncKey struct {
		pid   types.PID
		epoch uint64
	}
	syncAt := map[syncKey]int64{}
	for _, e := range syncs {
		syncAt[syncKey{e.pid, e.arg}] = e.when
	}
	var toApply []int64
	for _, e := range applies {
		if t, ok := syncAt[syncKey{e.pid, e.arg}]; ok {
			toApply = append(toApply, e.when-t)
		}
	}
	tab.values["kernel.sync_to_apply_us"] = nsQuantileUS(toApply, 0.5)

	// Sync stall: operations during which the responder logged a sync,
	// against the rest.
	if !r.oneWay {
		var serverSyncs []int64
		for _, e := range syncs {
			if e.pid == r.serverPID {
				serverSyncs = append(serverSyncs, e.when)
			}
		}
		var with, without []int64
		for i := r.firstOp; i < acked; i++ {
			j := sort.Search(len(serverSyncs), func(j int) bool { return serverSyncs[j] >= pr.writeStart[i] })
			l := pr.replyEntry[i] - pr.writeStart[i]
			if j < len(serverSyncs) && serverSyncs[j] <= pr.replyEntry[i] {
				with = append(with, l)
			} else {
				without = append(without, l)
			}
		}
		if len(with) > 0 && len(without) > 0 {
			tab.values["kernel.sync_stall_us"] = nsQuantileUS(with, 0.5) - nsQuantileUS(without, 0.5)
		}
	}

	// Crash notice processed → server backup runnable, on the promoting
	// cluster.
	var toRecover []int64
	for _, rec := range recovers {
		if rec.pid != r.serverPID {
			continue
		}
		best := int64(-1)
		for _, c := range crashes {
			if c.cluster == rec.cluster && c.when <= rec.when && c.when > best {
				best = c.when
			}
		}
		if best >= 0 {
			toRecover = append(toRecover, rec.when-best)
		}
	}
	tab.values["kernel.crash_to_recover_us"] = nsQuantileUS(toRecover, 0.5)
	return tab
}

// eventIndex looks one message's path up among a repetition's events.
type eventIndex struct {
	events  []stamped
	tx      map[txKey][]int // EvTransmit event indexes by (payload hash, sender), in time order
	rx      map[rxKey]int64 // EvReceive time by (message ID, cluster)
	deliver map[uint64]stamped
}

// transit is one message's way through the system: accepted by the bus,
// queued at the delivering cluster, delivered to its primary destination.
type transit struct {
	transmitted, received, delivered int64
}

// transit finds the first message with this payload hash that src
// transmitted in [from, to] and was delivered by to.
func (ix *eventIndex) transit(hash uint64, src types.PID, from, to int64) (transit, bool) {
	cands := ix.tx[txKey{hash, src}]
	j := sort.Search(len(cands), func(j int) bool { return ix.events[cands[j]].when >= from })
	if j == len(cands) {
		return transit{}, false
	}
	t := ix.events[cands[j]]
	d, ok := ix.deliver[t.msgID]
	if !ok || t.when > to || d.when > to {
		return transit{}, false
	}
	recv, ok := ix.rx[rxKey{t.msgID, d.cluster}]
	if !ok {
		return transit{}, false
	}
	return transit{t.when, recv, d.when}, true
}

// spans cuts the leg from the writer's write-call start to the reader's
// handler entry at the message's three events.
func (m transit) spans(op, leg int, writeAt, readAt int64) []span {
	return []span{
		{stWriteToTransmit, op, leg, writeAt, m.transmitted},
		{stTransmitToRecv, op, leg, m.transmitted, m.received},
		{stReceiveToDeliver, op, leg, m.received, m.delivered},
		{stDeliverToRead, op, leg, m.delivered, readAt},
	}
}

// print writes the where-the-time-goes table.
func (tab *stageTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nwhere the time goes: %s, traced repetition, %d of %d operations joined, lat_p50 %.2f us\n",
		workload, tab.joined, tab.sampled, tab.latP50)
	fmt.Fprintf(w, "  %-32s %6s %10s %10s %7s\n", "stage", "per op", "median us", "x per op", "share")
	sum := 0.0
	for _, r := range tab.rows {
		t := r.median * float64(r.perOp)
		sum += t
		fmt.Fprintf(w, "  %-32s %6d %10.2f %10.2f %6.1f%%\n", r.stage, r.perOp, r.median, t, 100*safeDiv(t, tab.latP50))
	}
	fmt.Fprintf(w, "  %-32s %6s %10s %10.2f %6.1f%%\n", "sum of stage medians", "", "", sum, 100*safeDiv(sum, tab.latP50))
}
