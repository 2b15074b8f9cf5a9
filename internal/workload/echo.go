package workload

import (
	"encoding/binary"
	"fmt"

	"auragen/internal/guest"
	"auragen/internal/types"
)

// EchoServer listens on "serve:<name>" and echoes every request back on its
// channel. Args: "<name>".
type EchoServer struct{}

// Start implements guest.Handler.
func (EchoServer) Start(p guest.API, st *guest.State) error {
	fd, err := p.Open("serve:" + string(p.Args()))
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

// OnMessage implements guest.Handler.
func (EchoServer) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) == st.GetInt64("listen") {
		nfd, err := p.Accept(data)
		if err != nil {
			return err
		}
		st.PutInt64(fmt.Sprintf("conn/%d", int64(nfd)), 1)
		return nil
	}
	if _, ok := st.Get(fmt.Sprintf("conn/%d", int64(fd))); !ok {
		return nil
	}
	return p.Write(fd, data)
}

// OnSignal implements guest.Handler.
func (EchoServer) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// EchoClient dials "<name>" and plays count ping-pongs of size bytes (at
// least 8: each request carries its sequence number), then exits. Args:
// "<name> <count> <size>".
type EchoClient struct{}

func echoClientArgs(p guest.API) (name string, count, size int, err error) {
	_, err = fmt.Sscanf(string(p.Args()), "%s %d %d", &name, &count, &size)
	return name, count, max(size, 8), err
}

// Start implements guest.Handler.
func (EchoClient) Start(p guest.API, st *guest.State) error {
	name, count, size, err := echoClientArgs(p)
	if err != nil {
		return fmt.Errorf("echo client: bad args %q: %v", p.Args(), err)
	}
	fd, err := p.Open("dial:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	if count == 0 {
		st.Exit()
		return nil
	}
	return p.Write(fd, echoRequest(0, size))
}

// OnMessage implements guest.Handler.
func (EchoClient) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	_, count, size, err := echoClientArgs(p)
	if err != nil {
		return err
	}
	done := st.Add("done", 1)
	if int(done) >= count {
		st.Exit()
		return nil
	}
	return p.Write(fd, echoRequest(uint64(done), size))
}

// OnSignal implements guest.Handler.
func (EchoClient) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

func echoRequest(seq uint64, size int) []byte {
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out, seq)
	return out
}
