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

// EncodeMessageFrame appends one message to w in frame layout.
func EncodeMessageFrame(w *wire.Writer, m *types.Message) {
	w.U64(m.ID)
	w.U8(uint8(m.Kind))
	w.U64(uint64(m.Channel))
	w.U64(uint64(m.Src))
	w.U64(uint64(m.Dst))
	w.I32(int32(m.Route.Dst))
	w.I32(int32(m.Route.DstBackup))
	w.I32(int32(m.Route.SrcBackup))
	w.I32(int32(m.Origin))
	w.U32(uint32(m.Inc))
	w.U64(uint64(m.Seq))
	w.Bytes32(m.Payload)
	w.U32(uint32(len(m.Nondet)))
	for _, v := range m.Nondet {
		w.U64(v)
	}
}

// DecodeMessageFrame parses one message frame. Empty Payload/Nondet decode
// to nil so a round trip is DeepEqual to its input.
func DecodeMessageFrame(r *wire.Reader) *types.Message {
	m := &types.Message{
		ID:      r.U64(),
		Kind:    types.Kind(r.U8()),
		Channel: types.ChannelID(r.U64()),
		Src:     types.PID(r.U64()),
		Dst:     types.PID(r.U64()),
		Route: types.Route{
			Dst:       types.ClusterID(r.I32()),
			DstBackup: types.ClusterID(r.I32()),
			SrcBackup: types.ClusterID(r.I32()),
		},
		Origin: types.ClusterID(r.I32()),
		Inc:    types.Incarnation(r.U32()),
		Seq:    types.Seq(r.U64()),
	}
	if p := r.Bytes32(); len(p) > 0 {
		m.Payload = append([]byte(nil), p...)
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		m.Nondet = append(m.Nondet, r.U64())
	}
	return m
}

// EncodeMessageBatch appends msgs to w as one checksummed wire batch, one
// frame per message.
func EncodeMessageBatch(w *wire.Writer, msgs []*types.Message) {
	bw := wire.NewBatchWriter(w)
	for _, m := range msgs {
		bw.BeginFrame()
		EncodeMessageFrame(w, m)
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
		m := DecodeMessageFrame(fr)
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
