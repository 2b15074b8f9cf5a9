package workload

import (
	"fmt"
	"strconv"
	"strings"

	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// BankServer is a reactor guest implementing the bank protocol over one or
// more paired channels. All balances live in the KV heap, so the invariant
// (the total never changes under transfers) must survive any single crash.
//
// Args: "<name> <accounts> <initBalance> <reserved>" (the last field is kept for
// compatibility with older scenario files and ignored: clients dial in
// dynamically)
type BankServer struct{}

// NewBankServerFactory registers-ready factory.
func NewBankServerFactory() guest.Factory {
	return guest.ReactorFactory(func() guest.Handler { return BankServer{} })
}

// Start implements guest.Handler.
func (BankServer) Start(p guest.API, st *guest.State) error {
	var name string
	var accounts, initBalance, channels int
	if _, err := fmt.Sscanf(string(p.Args()), "%s %d %d %d", &name, &accounts, &initBalance, &channels); err != nil {
		return fmt.Errorf("bank server: bad args %q: %v", p.Args(), err)
	}
	for i := 0; i < accounts; i++ {
		st.PutInt64("acct/"+strconv.Itoa(i), int64(initBalance))
	}
	st.PutInt64("accounts", int64(accounts))
	_ = channels // connection count is now dynamic: clients dial in
	fd, err := p.Open("serve:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

// OnMessage implements guest.Handler.
func (BankServer) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) == st.GetInt64("listen") {
		nfd, err := p.Accept(data)
		if err != nil {
			return err
		}
		st.PutInt64(fmt.Sprintf("chfd/%d", int64(nfd)), 1)
		return nil
	}
	if _, ok := st.Get(fmt.Sprintf("chfd/%d", int64(fd))); !ok {
		return nil
	}
	switch {
	case IsAudit(data):
		accounts := int(st.GetInt64("accounts"))
		total := int64(0)
		for i := 0; i < accounts; i++ {
			total += st.GetInt64("acct/" + strconv.Itoa(i))
		}
		serial := st.Add("serial", 1)
		return p.Write(fd, []byte(fmt.Sprintf("total %d %d", total, serial)))
	default:
		if from, to, amount, ok := ParseXfer(data); ok {
			st.Add("acct/"+strconv.Itoa(from), int64(-amount))
			st.Add("acct/"+strconv.Itoa(to), int64(amount))
			serial := st.Add("serial", 1)
			return p.Write(fd, []byte(fmt.Sprintf("ok %d", serial)))
		}
		if acct, ok := ParseBal(data); ok {
			bal := st.GetInt64("acct/" + strconv.Itoa(acct))
			return p.Write(fd, []byte(fmt.Sprintf("bal %d", bal)))
		}
		return p.Write(fd, []byte("err bad request"))
	}
}

// OnSignal implements guest.Handler.
func (BankServer) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// Teller is a reactor guest that drives a bank server with a deterministic
// transaction plan and exits when done, optionally reporting on a terminal.
//
// Args: "<serviceName> <term> <plan...>" where term < 0 suppresses the
// report.
type Teller struct{}

// NewTellerFactory returns a factory for Teller guests.
func NewTellerFactory() guest.Factory {
	return guest.ReactorFactory(func() guest.Handler { return Teller{} })
}

func tellerArgs(p guest.API) (chanName string, term int, plan TxnPlan, err error) {
	parts := strings.SplitN(string(p.Args()), " ", 3)
	if len(parts) != 3 {
		return "", 0, TxnPlan{}, fmt.Errorf("teller: bad args %q", p.Args())
	}
	term, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, TxnPlan{}, err
	}
	plan, err = DecodeTxnPlan([]byte(parts[2]))
	return parts[0], term, plan, err
}

// Start implements guest.Handler.
func (Teller) Start(p guest.API, st *guest.State) error {
	chanName, _, plan, err := tellerArgs(p)
	if err != nil {
		return err
	}
	fd, err := p.Open("dial:" + chanName)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	if plan.Txns == 0 {
		st.Exit()
		return nil
	}
	from, to, amt := plan.Txn(0)
	return p.Write(fd, XferReq(from, to, amt, plan.PayloadSize))
}

// OnMessage implements guest.Handler.
func (Teller) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	if !strings.HasPrefix(string(data), "ok ") {
		return fmt.Errorf("teller: unexpected reply %q", data)
	}
	_, term, plan, err := tellerArgs(p)
	if err != nil {
		return err
	}
	done := st.Add("done", 1)
	if int(done) < plan.Txns {
		from, to, amt := plan.Txn(int(done))
		return p.Write(fd, XferReq(from, to, amt, plan.PayloadSize))
	}
	if term >= 0 {
		tty, err := p.Open(fmt.Sprintf("tty:%d", term))
		if err != nil {
			return err
		}
		if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("teller done %d", done))); err != nil {
			return err
		}
	}
	st.Exit()
	return nil
}

// OnSignal implements guest.Handler.
func (Teller) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// Auditor asks a bank server for its total and reports it on a terminal,
// then exits. Args: "<channelName> <term>"
type Auditor struct{}

// NewAuditorFactory returns a factory for Auditor guests.
func NewAuditorFactory() guest.Factory {
	return guest.ReactorFactory(func() guest.Handler { return Auditor{} })
}

// Start implements guest.Handler.
func (Auditor) Start(p guest.API, st *guest.State) error {
	parts := strings.Fields(string(p.Args()))
	if len(parts) != 2 {
		return fmt.Errorf("auditor: bad args %q", p.Args())
	}
	fd, err := p.Open("dial:" + parts[0])
	if err != nil {
		return err
	}
	reply, err := p.Call(fd, AuditReq())
	if err != nil {
		return err
	}
	tty, err := p.Open("tty:" + parts[1])
	if err != nil {
		return err
	}
	var total, serial int64
	if _, err := fmt.Sscanf(string(reply), "total %d %d", &total, &serial); err != nil {
		return fmt.Errorf("auditor: bad reply %q", reply)
	}
	if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("audit total=%d", total))); err != nil {
		return err
	}
	st.Exit()
	return nil
}

// OnMessage implements guest.Handler.
func (Auditor) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	return nil
}

// OnSignal implements guest.Handler.
func (Auditor) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// PipeStage is a reactor guest forming one stage of a processing pipeline:
// it reads records from an input channel, transforms them (appends its
// stage tag and increments a hop counter), and forwards them downstream.
// The last stage reports each record to a terminal.
//
// Args: "<inName> <outName> <tag>" — empty outName makes this the sink,
// whose tag is the terminal number.
type PipeStage struct{}

// NewPipeStageFactory returns a factory for PipeStage guests.
func NewPipeStageFactory() guest.Factory {
	return guest.ReactorFactory(func() guest.Handler { return PipeStage{} })
}

// Start implements guest.Handler.
func (PipeStage) Start(p guest.API, st *guest.State) error {
	parts := strings.Fields(string(p.Args()))
	if len(parts) != 3 {
		return fmt.Errorf("pipestage: bad args %q", p.Args())
	}
	in, err := p.Open("chan:" + parts[0])
	if err != nil {
		return err
	}
	st.PutInt64("in", int64(in))
	if parts[1] != "-" {
		out, err := p.Open("chan:" + parts[1])
		if err != nil {
			return err
		}
		st.PutInt64("out", int64(out))
		st.PutInt64("haveOut", 1)
	}
	st.PutString("tag", parts[2])
	return nil
}

// OnMessage implements guest.Handler.
func (PipeStage) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("in") {
		return nil
	}
	tag := st.GetString("tag")
	record := string(data)
	if st.GetInt64("haveOut") == 1 {
		return p.Write(types.FD(st.GetInt64("out")), []byte(record+"|"+tag))
	}
	term, err := strconv.Atoi(tag)
	if err != nil {
		return err
	}
	if _, ok := st.Get("tty"); !ok {
		tty, err := p.Open(fmt.Sprintf("tty:%d", term))
		if err != nil {
			return err
		}
		st.PutInt64("tty", int64(tty))
	}
	return p.Write(types.FD(st.GetInt64("tty")), ttyserver.WriteReq(record))
}

// OnSignal implements guest.Handler.
func (PipeStage) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// Register installs all workload programs under their conventional names.
func Register(reg *guest.Registry) {
	reg.Register("bank-server", NewBankServerFactory())
	reg.Register("teller", NewTellerFactory())
	reg.Register("auditor", NewAuditorFactory())
	reg.Register("pipe-stage", NewPipeStageFactory())
	reg.Register("echo-server", guest.ReactorFactory(func() guest.Handler { return EchoServer{} }))
	reg.Register("echo-client", guest.ReactorFactory(func() guest.Handler { return EchoClient{} }))
}
