package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// monoClock is the one time source of a run: the guests' side-buffer stamps
// and the event log's When fields both read it, so traced stages subtract
// without skew. It is monotonic; the wall clock may step under NTP.
type monoClock struct{ base time.Time }

func (c monoClock) Now() int64 { return int64(time.Since(c.base)) }

// probe is the side buffer the bench guests stamp into and the driver reads
// after the repetition: the measurement taken from outside the system. It
// is not guest state in the §4 sense — nothing the system under test sees
// depends on it — so it lives in plain Go memory, one per repetition.
//
// Every slice is pre-sized to the repetition's op count and written by
// exactly one guest goroutine at index i; the driver reads them only after
// done is closed (or, on failover, reads acked atomically while running).
type probe struct {
	clock monoClock
	seed  uint64
	ops   int // operations in the repetition, warm-up included
	warm  int // operations before the measured window opens

	// Requester side: write-call start/end of op i and handler entry of
	// its reply (echo, bank). On stream these are the producer's.
	writeStart, writeEnd, replyEntry []int64
	// Responder side: handler entry of request i and write-call start of
	// the reply (echo server); on stream, the sink's handler entry.
	peerEntry, peerWrite []int64

	// acked counts replies accepted in order; the failover driver polls it.
	acked atomic.Int64
	// Oracle counts (see README "what counts as a failed operation").
	wrong      atomic.Int64 // payload or sequence mismatch
	duplicates atomic.Int64 // reply serial below expected: dropped
	phantoms   atomic.Int64 // reply serial above expected: transfers applied twice

	// Hooks the driver installs: onWarm runs on the requester's goroutine
	// as op warm is about to be issued, onLast on the goroutine that sees
	// the last op complete. They bracket the measured window.
	onWarm, onLast func()
	once           sync.Once
	done           chan struct{}

	// traced makes the guests record the payload hash of every request and
	// reply, the key the stage join looks transmissions up by.
	traced           bool
	reqHash, repHash []uint64

	// The requester wakes the failover driver at every multiple of
	// crashEvery acknowledged ops that leaves a full period before the end
	// (the final audit runs fault-free). When quiesce is set it then holds
	// its next request until the driver has called sys.Crash, so the crash
	// lands with no request of this connection in flight.
	crashEvery int
	wake       chan struct{}
	quiesce    bool
	resume     chan struct{}

	// Final-audit results the teller writes before finishing.
	auditTotal int64
	balances   []int64
}

func newProbe(clock monoClock, seed uint64, ops, warm int, peer, traced bool) *probe {
	pr := &probe{
		clock: clock, seed: seed, ops: ops, warm: warm,
		writeStart: make([]int64, ops),
		writeEnd:   make([]int64, ops),
		replyEntry: make([]int64, ops),
		done:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
		resume:     make(chan struct{}, 1),
		traced:     traced,
	}
	if peer {
		pr.peerEntry = make([]int64, ops)
		pr.peerWrite = make([]int64, ops)
	}
	if traced {
		pr.reqHash = make([]uint64, ops)
		pr.repHash = make([]uint64, ops)
	}
	return pr
}

// ack records that op i completed in order and runs the window hooks.
func (pr *probe) ack(i int) {
	n := i + 1
	pr.acked.Store(int64(n))
	if pr.crashEvery > 0 && n%pr.crashEvery == 0 && n <= pr.ops-pr.crashEvery {
		select {
		case pr.wake <- struct{}{}:
		default:
		}
		if pr.quiesce {
			<-pr.resume
		}
	}
	if i+1 == pr.ops && pr.onLast != nil {
		pr.onLast()
	}
}

// issue stamps and performs the write of op i's request.
func (pr *probe) issue(p guest.API, fd types.FD, i int, req []byte) error {
	if i == pr.warm && pr.onWarm != nil {
		pr.onWarm()
	}
	if pr.traced {
		pr.reqHash[i] = trace.HashPayload(req)
	}
	pr.writeStart[i] = pr.clock.Now()
	err := p.Write(fd, req)
	pr.writeEnd[i] = pr.clock.Now()
	return err
}

func (pr *probe) finish() { pr.once.Do(func() { close(pr.done) }) }

// fillPayload writes the op's message body: sequence number, then bytes
// derived from the run seed, so payload contents (and their trace hashes)
// are a function of (seed, i) alone.
func fillPayload(buf []byte, seed uint64, i int) {
	binary.LittleEndian.PutUint64(buf, uint64(i))
	r := workload.NewRand(seed ^ uint64(i)*0x9E3779B97F4A7C15)
	for off := 8; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], r.Next())
	}
}

// listener is the accept half shared by the bench servers: it keeps the
// listening descriptor in the KV heap like any reactor guest, so the server
// syncs and recovers like a real one.
type listener struct{}

func (listener) listen(p guest.API, st *guest.State) error {
	fd, err := p.Open("serve:" + string(p.Args()))
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

// accepted reports whether the event was the accept notice (consumed).
func (listener) accepted(p guest.API, st *guest.State, fd types.FD, data []byte) (bool, error) {
	if int64(fd) != st.GetInt64("listen") {
		return false, nil
	}
	_, err := p.Accept(data)
	return true, err
}

// echoServer echoes every request on its one connection, stamping handler
// entry and reply write start. Args: service name.
type echoServer struct {
	listener
	pr *probe
}

func (s *echoServer) Start(p guest.API, st *guest.State) error { return s.listen(p, st) }

func (s *echoServer) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	t := s.pr.clock.Now()
	if ok, err := s.accepted(p, st, fd, data); ok {
		return err
	}
	if len(data) >= 8 {
		if i := int(binary.LittleEndian.Uint64(data)); i < s.pr.ops {
			s.pr.peerEntry[i] = t
			s.pr.peerWrite[i] = s.pr.clock.Now()
		}
	}
	return p.Write(fd, data)
}

func (*echoServer) OnSignal(guest.API, *guest.State, types.Signal) error { return nil }

// echoClient plays pr.ops ping-pongs of size bytes, one outstanding, and
// checks that reply i is byte-identical to request i. Args: "<name> <size>".
type echoClient struct {
	pr  *probe
	buf []byte
}

func (c *echoClient) Start(p guest.API, st *guest.State) error {
	var name string
	var size int
	if _, err := fmt.Sscanf(string(p.Args()), "%s %d", &name, &size); err != nil {
		return fmt.Errorf("bench echo client: bad args %q: %v", p.Args(), err)
	}
	fd, err := p.Open("dial:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	c.buf = make([]byte, size)
	return c.send(p, fd, 0)
}

func (c *echoClient) send(p guest.API, fd types.FD, i int) error {
	fillPayload(c.buf, c.pr.seed, i)
	return c.pr.issue(p, fd, i, c.buf)
}

func (c *echoClient) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	t := c.pr.clock.Now()
	pr := c.pr
	i := int(pr.acked.Load())
	// c.buf still holds request i: one request is outstanding at a time.
	if string(data) != string(c.buf) {
		pr.wrong.Add(1)
		return nil
	}
	pr.replyEntry[i] = t
	if pr.traced {
		pr.repHash[i] = pr.reqHash[i] // an echo: the reply is the request
	}
	pr.ack(i)
	if i+1 == pr.ops {
		pr.finish()
		st.Exit()
		return nil
	}
	return c.send(p, fd, i+1)
}

func (*echoClient) OnSignal(guest.API, *guest.State, types.Signal) error { return nil }

const (
	streamWindow = 128 // messages the producer keeps in flight
	streamAck    = 64  // the sink acknowledges every streamAck-th message
)

// streamSink receives the one-way stream, checks order, and acks every
// streamAck messages. Args: service name.
type streamSink struct {
	listener
	pr *probe
}

func (s *streamSink) Start(p guest.API, st *guest.State) error { return s.listen(p, st) }

func (s *streamSink) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	t := s.pr.clock.Now()
	if ok, err := s.accepted(p, st, fd, data); ok {
		return err
	}
	pr := s.pr
	i := int(pr.acked.Load())
	if len(data) < 8 || int(binary.LittleEndian.Uint64(data)) != i {
		pr.wrong.Add(1)
		return nil
	}
	pr.peerEntry[i] = t
	pr.ack(i)
	if i+1 == pr.ops {
		pr.finish()
	}
	if (i+1)%streamAck == 0 {
		var ack [8]byte
		binary.LittleEndian.PutUint64(ack[:], uint64(i+1))
		return p.Write(fd, ack[:])
	}
	return nil
}

func (*streamSink) OnSignal(guest.API, *guest.State, types.Signal) error { return nil }

// streamProducer keeps streamWindow messages of size bytes in flight and
// sends streamAck more per ack. Args: "<name> <size>".
type streamProducer struct {
	pr   *probe
	buf  []byte
	sent int
}

func (c *streamProducer) Start(p guest.API, st *guest.State) error {
	var name string
	var size int
	if _, err := fmt.Sscanf(string(p.Args()), "%s %d", &name, &size); err != nil {
		return fmt.Errorf("bench stream producer: bad args %q: %v", p.Args(), err)
	}
	fd, err := p.Open("dial:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	c.buf = make([]byte, size)
	return c.send(p, fd, streamWindow)
}

func (c *streamProducer) send(p guest.API, fd types.FD, n int) error {
	pr := c.pr
	for ; n > 0 && c.sent < pr.ops; n-- {
		fillPayload(c.buf, pr.seed, c.sent)
		if err := pr.issue(p, fd, c.sent, c.buf); err != nil {
			return err
		}
		c.sent++
	}
	return nil
}

func (c *streamProducer) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if c.sent >= c.pr.ops {
		select {
		case <-c.pr.done:
			st.Exit()
		default:
		}
		return nil
	}
	return c.send(p, fd, streamAck)
}

func (*streamProducer) OnSignal(guest.API, *guest.State, types.Signal) error { return nil }

// benchTeller drives workload.BankServer with the seeded plan, one transfer
// outstanding, and checks every reply serial against its own acknowledged
// count. After the last transfer it audits the bank (total, then the
// balance of every account in pr.balances) before finishing.
// Args: "<name> <plan>".
type benchTeller struct {
	pr   *probe
	plan workload.TxnPlan
	// serial is the server serial the next in-order reply must carry. It
	// runs ahead of acked by the phantom applies seen so far.
	serial int64
	audit  int // -1 while transferring; then the next balance index to read
}

func (c *benchTeller) Start(p guest.API, st *guest.State) error {
	name, planArgs, ok := strings.Cut(string(p.Args()), " ")
	if !ok {
		return fmt.Errorf("bench teller: bad args %q", p.Args())
	}
	plan, err := workload.DecodeTxnPlan([]byte(planArgs))
	if err != nil {
		return err
	}
	c.plan, c.serial, c.audit = plan, 1, -1
	fd, err := p.Open("dial:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	return c.send(p, fd, 0)
}

func (c *benchTeller) send(p guest.API, fd types.FD, i int) error {
	from, to, amt := c.plan.Txn(i)
	return c.pr.issue(p, fd, i, workload.XferReq(from, to, amt, c.plan.PayloadSize))
}

func (c *benchTeller) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	t := c.pr.clock.Now()
	pr := c.pr
	if c.audit >= 0 {
		return c.onAudit(p, st, fd, data)
	}
	if len(data) < 4 || string(data[:3]) != "ok " {
		pr.wrong.Add(1)
		return nil
	}
	serial, err := strconv.ParseInt(string(data[3:]), 10, 64)
	if err != nil {
		pr.wrong.Add(1)
		return nil
	}
	switch {
	case serial < c.serial:
		// A reply this teller already accepted, sent again by a recovering
		// server whose suppression count came up short: drop it.
		pr.duplicates.Add(1)
		return nil
	case serial > c.serial:
		// The server applied transfers this teller never sent twice.
		pr.phantoms.Add(serial - c.serial)
	}
	c.serial = serial + 1
	i := int(pr.acked.Load())
	pr.replyEntry[i] = t
	if pr.traced {
		pr.repHash[i] = trace.HashPayload(data)
	}
	pr.ack(i)
	if i+1 < pr.ops {
		return c.send(p, fd, i+1)
	}
	c.audit = 0
	return p.Write(fd, workload.AuditReq())
}

func (c *benchTeller) onAudit(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	pr := c.pr
	if c.audit == 0 && len(data) > 6 && string(data[:6]) == "total " {
		var serial int64
		if _, err := fmt.Sscanf(string(data), "total %d %d", &pr.auditTotal, &serial); err != nil {
			pr.wrong.Add(1)
		}
	} else if len(data) > 4 && string(data[:4]) == "bal " {
		v, err := strconv.ParseInt(string(data[4:]), 10, 64)
		if err != nil {
			pr.wrong.Add(1)
		}
		pr.balances[c.audit-1] = v
	} else {
		// A stale transfer reply surfacing during the audit.
		pr.duplicates.Add(1)
		return nil
	}
	if c.audit == len(pr.balances) {
		pr.finish()
		st.Exit()
		return nil
	}
	c.audit++
	return p.Write(fd, workload.BalReq(c.audit-1))
}

func (*benchTeller) OnSignal(guest.API, *guest.State, types.Signal) error { return nil }

// registerGuests binds the bench programs to one repetition's probe.
func registerGuests(reg *guest.Registry, pr *probe) {
	workload.Register(reg)
	reg.Register("bench-echo-server", guest.ReactorFactory(func() guest.Handler { return &echoServer{pr: pr} }))
	reg.Register("bench-echo-client", guest.ReactorFactory(func() guest.Handler { return &echoClient{pr: pr} }))
	reg.Register("bench-stream-sink", guest.ReactorFactory(func() guest.Handler { return &streamSink{pr: pr} }))
	reg.Register("bench-stream-producer", guest.ReactorFactory(func() guest.Handler { return &streamProducer{pr: pr} }))
	reg.Register("bench-teller", guest.ReactorFactory(func() guest.Handler { return &benchTeller{pr: pr} }))
}
