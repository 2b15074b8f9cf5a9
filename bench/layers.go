package main

import (
	"strconv"
	"time"

	"auragen/internal/bus"
	"auragen/internal/core"
	"auragen/internal/disk"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/pager"
	"auragen/internal/routing"
	"auragen/internal/types"
	"auragen/internal/wire"
	"auragen/internal/workload"
)

// The D metrics: direct timed calls into one layer's exported functions,
// with the shapes the workload gives that layer (message size, the mean
// batch it was observed to reach, key count, one operation's write-set).
// They cost nothing to the system runs — no system is up while they run —
// and they are the only per-layer times that contain no scheduling.

// timeRounds runs fn rounds times and returns the median duration of one
// call, in nanoseconds.
func timeRounds(rounds int, fn func()) float64 {
	d := make([]float64, rounds)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(d)
}

const (
	layerRounds = 15
	layerIters  = 200 // calls per timed round, so the clock read is amortised
)

func layerMetrics(w *workloadSpec, seed uint64, meanBatch float64) map[string]float64 {
	v := map[string]float64{}
	batch := int(meanBatch + 0.5)
	if batch < 1 {
		batch = 1
	}
	size := w.payload
	if w.accounts > 0 {
		size = len(workload.XferReq(w.accounts-1, w.accounts-2, bankAmount, 0))
	}
	// The three-way route of a data message between the bench processes.
	route := types.Route{Dst: serverCluster, DstBackup: 0, SrcBackup: 3}
	payload := make([]byte, size)
	fillPayload(payload, seed, 0)
	backing := make([]types.Message, batch)
	msgs := make([]*types.Message, batch)
	for i := range msgs {
		backing[i] = types.Message{Kind: types.KindData, Channel: 7, Src: 101, Dst: 102, Route: route, Payload: payload}
		msgs[i] = &backing[i]
	}
	perMsg := float64(layerIters * batch)

	// wire: the batch frame codec over one transmission's worth of messages.
	wr := wire.NewWriter(batch * (size + 128))
	v["wire.batch_encode_ns_per_msg"] = timeRounds(layerRounds, func() {
		for i := 0; i < layerIters; i++ {
			wr.Reset()
			kernel.EncodeMessageBatch(wr, msgs)
		}
	}) / perMsg
	frame := append([]byte(nil), wr.Bytes()...)
	v["wire.batch_decode_ns_per_msg"] = timeRounds(layerRounds, func() {
		for i := 0; i < layerIters; i++ {
			if _, err := kernel.DecodeMessageBatch(frame); err != nil {
				panic(err) // the frame was encoded two lines up
			}
		}
	}) / perMsg

	// bus: a bare bus with the four clusters attached; each iteration is one
	// batched transmission and the three receivers' drains. Each half
	// carries one clock read (~25 ns) per iteration, which matters only at
	// batch size 1.
	b := core.NewBareBus(core.NewObservability(0))
	inboxes := make([]*bus.Inbox, clusters)
	for c := range inboxes {
		inboxes[c] = b.Attach(types.ClusterID(c))
	}
	bufs := make([][]types.Message, clusters)
	drain := func() {
		for _, c := range []types.ClusterID{route.Dst, route.DstBackup, route.SrcBackup} {
			bufs[c], _ = inboxes[c].PopAll(bufs[c])
		}
	}
	var sendNS, drainNS []float64
	for r := 0; r < layerRounds; r++ {
		var send, pop time.Duration
		for i := 0; i < layerIters; i++ {
			t0 := time.Now()
			if _, err := b.BroadcastBatch(msgs); err != nil {
				panic(err) // both buses up, every target attached
			}
			t1 := time.Now()
			drain()
			send += t1.Sub(t0)
			pop += time.Since(t1)
		}
		sendNS = append(sendNS, float64(send.Nanoseconds()))
		drainNS = append(drainNS, float64(pop.Nanoseconds()))
	}
	for c := range inboxes {
		b.Detach(types.ClusterID(c))
	}
	v["bus.broadcast_ns_per_msg"] = median(sendNS) / perMsg
	v["bus.popall_ns_per_msg"] = median(drainNS) / perMsg

	// routing: the per-channel queue a delivered message waits in until the
	// process reads it — the table lookup and enqueue dispatch does, then
	// the lookup and dequeue the read does.
	table := routing.NewTable()
	table.Add(&routing.Entry{Channel: 7, Owner: 102, Peer: 101, Role: routing.Primary})
	v["routing.enqueue_dequeue_ns"] = timeRounds(layerRounds, func() {
		for i := 0; i < layerIters; i++ {
			if e, ok := table.Lookup(7, 102, routing.Primary); ok {
				e.Enqueue(msgs[0])
			}
			if e, ok := table.Lookup(7, 102, routing.Primary); ok {
				e.Dequeue()
			}
		}
	}) / layerIters

	// memory: a reactor heap of the workload's key count; one operation's
	// write-set, then what a sync does to it.
	space := memory.NewAddressSpace(memory.DefaultPageSize)
	kv, err := memory.NewKV(space)
	if err != nil {
		panic(err) // a fresh address space holds no image to misparse
	}
	kv.PutInt64("listen", 3)
	kv.PutInt64("conn", 4)
	for i := 0; i < w.accounts; i++ {
		kv.PutInt64("acct/"+strconv.Itoa(i), bankInitBalance)
	}
	kv.Flush()
	space.CaptureDirty()
	plan := workload.TxnPlan{Accounts: w.accounts, Amount: bankAmount, Seed: seed}
	var flushNS, captureNS, dirtied []float64
	var lastPages []memory.Page
	for i := 0; i < layerRounds*4; i++ {
		if w.accounts > 0 {
			from, to, amt := plan.Txn(i)
			kv.Add("acct/"+strconv.Itoa(from), int64(-amt))
			kv.Add("acct/"+strconv.Itoa(to), int64(amt))
			kv.Add("serial", 1)
		}
		t0 := time.Now()
		kv.Flush()
		t1 := time.Now()
		pages := space.CaptureDirty()
		t2 := time.Now()
		flushNS = append(flushNS, float64(t1.Sub(t0).Nanoseconds()))
		captureNS = append(captureNS, float64(t2.Sub(t1).Nanoseconds()))
		dirtied = append(dirtied, float64(len(pages)))
		if len(pages) > 0 {
			lastPages = pages
		}
	}
	v["memory.kv_flush_us"] = median(flushNS) / 1e3
	v["memory.capture_dirty_us"] = median(captureNS) / 1e3
	v["memory.pages_dirtied_per_flush"] = median(dirtied)

	// pager and disk: an account holding the workload's resident image,
	// then one sync's page-out, commit, and a recovery's page request.
	const pid = types.PID(102)
	pg := pager.New(0, disk.New("bench-pager", memory.DefaultPageSize, 0, 1))
	pg.HandlePageOut(&kernel.PageOut{PID: pid, Epoch: 1, From: serverCluster, Pages: space.SnapshotAll()})
	pg.HandleSyncCommit(pid, 1)
	if len(lastPages) == 0 {
		lastPages = space.SnapshotAll()[:1]
	}
	var outNS, commitNS, requestNS []float64
	for i := 0; i < layerRounds*4; i++ {
		po := &kernel.PageOut{PID: pid, Epoch: types.Epoch(i + 2), From: serverCluster, Pages: lastPages}
		t0 := time.Now()
		pg.HandlePageOut(po)
		t1 := time.Now()
		pg.HandleSyncCommit(pid, po.Epoch)
		t2 := time.Now()
		pg.HandlePageRequest(pid)
		t3 := time.Now()
		outNS = append(outNS, float64(t1.Sub(t0).Nanoseconds())/float64(len(lastPages)))
		commitNS = append(commitNS, float64(t2.Sub(t1).Nanoseconds()))
		requestNS = append(requestNS, float64(t3.Sub(t2).Nanoseconds()))
	}
	v["pager.page_out_us_per_page"] = median(outNS) / 1e3
	v["pager.sync_commit_us"] = median(commitNS) / 1e3
	v["pager.page_request_us"] = median(requestNS) / 1e3

	d := disk.New("bench-disk", memory.DefaultPageSize, 0, 1)
	block := make([]byte, memory.DefaultPageSize)
	id, err := d.Alloc(0)
	if err != nil {
		panic(err) // a new disk has both mirrors attached to cluster 0
	}
	v["disk.write_us_per_block"] = timeRounds(layerRounds, func() {
		for i := 0; i < layerIters; i++ {
			if err := d.Write(0, id, block); err != nil {
				panic(err)
			}
		}
	}) / layerIters / 1e3
	return v
}
