package fileserver

import (
	"fmt"

	"auragen/internal/wire"
)

// File-channel operation codes. A user process opens a file name, receives
// a channel to the file server, and issues these requests on it with Call;
// every request produces exactly one reply.
const (
	// OpRead reads up to Count bytes at the channel's offset.
	OpRead uint8 = 1
	// OpWrite writes Data at the channel's offset.
	OpWrite uint8 = 2
	// OpSeek sets the channel's offset.
	OpSeek uint8 = 3
	// OpStat returns the file's size.
	OpStat uint8 = 4
	// OpTrunc truncates the file to Offset bytes.
	OpTrunc uint8 = 5
	// OpAppend writes Data at end of file.
	OpAppend uint8 = 6
	// OpUnlink removes the file bound to this channel.
	OpUnlink uint8 = 7
)

// Request is one file-channel request.
type Request struct {
	Op     uint8
	Offset int64
	Count  uint32
	Data   []byte
}

func (q *Request) codec(c *wire.Codec) {
	c.U8(&q.Op)
	c.I64(&q.Offset)
	c.U32(&q.Count)
	c.Bytes32(&q.Data)
}

// Reply is one file-channel reply.
type Reply struct {
	Err  string
	Size int64
	Data []byte
}

func (p *Reply) codec(c *wire.Codec) {
	c.String(&p.Err)
	c.I64(&p.Size)
	c.Bytes32(&p.Data)
}

// DecodeReply parses a file-channel reply.
func DecodeReply(b []byte) (*Reply, error) {
	p := new(Reply)
	if err := wire.Decode(b, p.codec); err != nil {
		return nil, fmt.Errorf("fileserver: reply: %w", err)
	}
	return p, nil
}

// Client-side helpers for guests.

// ReadReq builds an OpRead request.
func ReadReq(n uint32) []byte { return request(Request{Op: OpRead, Count: n}) }

// WriteReq builds an OpWrite request.
func WriteReq(data []byte) []byte { return request(Request{Op: OpWrite, Data: data}) }

// AppendReq builds an OpAppend request.
func AppendReq(data []byte) []byte { return request(Request{Op: OpAppend, Data: data}) }

// SeekReq builds an OpSeek request.
func SeekReq(off int64) []byte { return request(Request{Op: OpSeek, Offset: off}) }

// StatReq builds an OpStat request.
func StatReq() []byte { return request(Request{Op: OpStat}) }

// TruncReq builds an OpTrunc request.
func TruncReq(size int64) []byte { return request(Request{Op: OpTrunc, Offset: size}) }

// UnlinkReq builds an OpUnlink request.
func UnlinkReq() []byte { return request(Request{Op: OpUnlink}) }

func request(q Request) []byte { return wire.Encode(q.codec) }
