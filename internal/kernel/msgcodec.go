package kernel

import (
	"fmt"

	"auragen/internal/types"
	"auragen/internal/wire"
)

// Message-frame codec: the wire representation of one batched bus
// transmission. The in-process bus hands message pointers across clusters,
// so nothing on the hot path serializes whole messages — but the batch the
// executive coalesces (see Kernel.transmitLocked / bus.BroadcastBatch) is
// conceptually one framed transmission on the physical bus, and this codec
// pins that format: a wire batch (checksummed, fail-closed) holding one
// frame per message. The property tests in msgcodec_test.go keep the
// encoding honest; a future split-memory transport can adopt it unchanged.

// messageFrame codes one message in frame layout.
func messageFrame(c *wire.Codec, m *types.Message) {
	c.U64(&m.ID)
	c.U8((*uint8)(&m.Kind))
	c.U64((*uint64)(&m.Channel))
	c.U64((*uint64)(&m.Src))
	c.U64((*uint64)(&m.Dst))
	c.I32((*int32)(&m.Route.Dst))
	c.I32((*int32)(&m.Route.DstBackup))
	c.I32((*int32)(&m.Route.SrcBackup))
	c.I32((*int32)(&m.Origin))
	c.U32((*uint32)(&m.Inc))
	c.U64((*uint64)(&m.Seq))
	c.Bytes32(&m.Payload)
	wire.U64s(c, &m.Nondet)
}

// EncodeMessageBatch appends msgs to w as one checksummed wire batch, one
// frame per message.
func EncodeMessageBatch(w *wire.Writer, msgs []*types.Message) {
	bw := wire.NewBatchWriter(w)
	c := wire.EncodeTo(w)
	for _, m := range msgs {
		bw.BeginFrame()
		messageFrame(c, m)
		bw.EndFrame()
	}
	bw.Finish()
}

// DecodeMessageBatch parses a batch produced by EncodeMessageBatch. It
// fails closed: truncation or corruption anywhere in the batch yields an
// error and no messages — never a partial prefix (the decoded analogue of
// the bus's batch atomicity).
func DecodeMessageBatch(b []byte) ([]*types.Message, error) {
	br := wire.NewBatchReader(b)
	var out []*types.Message
	for {
		f, ok := br.Next()
		if !ok {
			break
		}
		fr := wire.NewReader(f)
		m := new(types.Message)
		messageFrame(wire.DecodeFrom(fr), m)
		if err := fr.Done(); err != nil {
			return nil, fmt.Errorf("kernel: message frame: %w", err)
		}
		out = append(out, m)
	}
	if err := br.Done(); err != nil {
		return nil, fmt.Errorf("kernel: message batch: %w", err)
	}
	return out, nil
}
