package kernel

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"auragen/internal/types"
	"auragen/internal/wire"
)

// FuzzDecodeMessageBatch holds the message-batch codec to its fail-closed
// contract on arbitrary input:
//
//   - it never panics;
//   - a rejected input yields an error and zero messages (batch atomicity:
//     never a partial prefix);
//   - an accepted input is canonical: re-encoding the decoded messages with
//     EncodeMessageBatch reproduces the input byte for byte (empty
//     Payload/Nondet decode to nil and encode back to the same zero-length
//     prefix);
//   - every single-byte mutation of an accepted input is rejected, because
//     the enclosing wire batch checksums magic through the last frame byte
//     and the trailer is the checksum itself.
//
// The seed corpus alone exercises all of this under plain `go test`; `go
// test -fuzz=FuzzDecodeMessageBatch ./internal/kernel` explores further.
func FuzzDecodeMessageBatch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		msgs := make([]*types.Message, rng.Intn(6))
		for i := range msgs {
			msgs[i] = randomMessage(rng)
		}
		w := wire.NewWriter(0)
		EncodeMessageBatch(w, msgs)
		f.Add(append([]byte(nil), w.Bytes()...))
	}
	// A decision-log entry travels as an ordinary message, so the batch
	// codec's atomicity and every-byte-flip rejection must hold over its
	// payload too.
	decision := []*types.Message{
		{ID: 90, Kind: types.KindDecision, Src: 21, Dst: 21,
			Route:   types.Route{Dst: 3, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
			Payload: Encode(&DecisionMsg{PID: 21, Seq: 4, Reads: 37})},
	}
	sw := wire.NewWriter(0)
	EncodeMessageBatch(sw, decision)
	f.Add(append([]byte(nil), sw.Bytes()...))

	// Lossy-wire seeds: the exact shapes the bus fault model manufactures.
	// A duplicated frame — the same message twice in one batch, incarnation
	// stamp and all — must round-trip (dedup is the receiver's job, not the
	// codec's), and a single flipped byte in a valid batch must die in the
	// fail-closed decode (the corrupt fault counts on it).
	dupMsg := &types.Message{ID: 92, Kind: types.KindData, Src: 33, Dst: 44,
		Route:  types.Route{Dst: 1, DstBackup: 0, SrcBackup: 2},
		Origin: 2, Inc: 7,
		Payload: []byte("xfer 3 4 7")}
	dw := wire.NewWriter(0)
	EncodeMessageBatch(dw, []*types.Message{dupMsg, dupMsg})
	f.Add(append([]byte(nil), dw.Bytes()...))
	flipped := append([]byte(nil), dw.Bytes()...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	w := wire.NewWriter(0)
	EncodeMessageBatch(w, nil)
	f.Add(append([]byte(nil), w.Bytes()...)) // empty batch
	f.Add([]byte{})
	f.Add([]byte("garbage that is longer than the batch overhead bytes"))

	f.Fuzz(func(t *testing.T, b []byte) {
		msgs, err := DecodeMessageBatch(b)
		if err != nil {
			if len(msgs) != 0 {
				t.Fatalf("rejected batch yielded %d messages", len(msgs))
			}
			return
		}

		rw := wire.NewWriter(len(b))
		EncodeMessageBatch(rw, msgs)
		if !bytes.Equal(rw.Bytes(), b) {
			t.Fatalf("accepted batch is not canonical:\n in: %x\nout: %x", b, rw.Bytes())
		}

		stride := 1
		if len(b) > 1024 {
			stride = len(b) / 512
		}
		mut := append([]byte(nil), b...)
		for i := 0; i < len(mut); i += stride {
			mut[i] ^= 0x20
			got, err := DecodeMessageBatch(mut)
			if err == nil || len(got) != 0 {
				t.Fatalf("byte %d flip: decoded %d messages, err=%v", i, len(got), err)
			}
			mut[i] ^= 0x20
		}
	})
}

// randomSyncMsg builds a sync image with pseudo-random contents, biased
// towards the common shape (no child to free, no roll-forward debt).
func randomSyncMsg(rng *rand.Rand) *SyncMsg {
	s := &SyncMsg{
		PID:            types.PID(rng.Uint64()),
		Epoch:          types.Epoch(rng.Uint32()),
		Program:        "prog-" + string(rune('a'+rng.Intn(26))),
		Mode:           types.BackupMode(rng.Intn(3)),
		Family:         types.PID(rng.Uint64()),
		Parent:         types.PID(rng.Uint64()),
		PrimaryCluster: types.ClusterID(rng.Intn(5) - 1),
		NextFD:         types.FD(rng.Intn(16)),
		SignalNext:     rng.Intn(2) == 0,
		SignalChannel:  types.ChannelID(rng.Uint64()),
		Establish:      rng.Intn(4) == 0,
		TotalReads:     rng.Uint64(),
	}
	s.Args = make([]byte, rng.Intn(40))
	rng.Read(s.Args)
	s.Regs = make([]byte, rng.Intn(40))
	rng.Read(s.Regs)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		s.Channels = append(s.Channels, ChannelInfo{Channel: types.ChannelID(rng.Uint64()), FD: types.FD(i), Reads: rng.Uint32(), Peer: types.PID(rng.Uint64())})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.ClosedChannels = append(s.ClosedChannels, types.ChannelID(rng.Uint64()))
	}
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			s.FreePIDs = append(s.FreePIDs, types.PID(rng.Uint64()))
		}
	}
	if rng.Intn(4) == 0 {
		s.Suppress = map[types.ChannelID]uint32{types.ChannelID(rng.Uint64()): rng.Uint32()}
		s.NondetRemaining = []uint64{rng.Uint64(), rng.Uint64()}
	}
	return s
}

// FuzzDecodeSyncCommit holds the page servers' short decoder against the
// backup's full one: on any input it never panics; whatever Decode[SyncMsg]
// accepts DecodeSyncCommit accepts too, with the same PID, epoch and free
// list; and what DecodeSyncCommit rejects Decode[SyncMsg] rejects. (The reverse
// does not hold and need not: the short decoder validates only what it
// reads.) The seed corpus is the batch codec's — every payload its seeds
// carry — plus seeded random sync images, whole and cut short at every
// length.
func FuzzDecodeSyncCommit(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i, n := 0, rng.Intn(6); i < n; i++ {
			f.Add(randomMessage(rng).Payload)
		}
		image := Encode(randomSyncMsg(rng))
		if _, err := Decode[SyncMsg](image); err != nil {
			f.Fatalf("seed %d: the corpus holds no accepted image: %v", seed, err)
		}
		for cut := 0; cut <= len(image); cut++ {
			f.Add(image[:cut])
		}
		f.Add(Encode(randomSyncMsg(rng)))
	}
	f.Add(Encode(&SyncMsg{PID: 21, Epoch: 5, Program: "sig-server"}))

	f.Fuzz(func(t *testing.T, image []byte) {
		pid, epoch, free, cerr := DecodeSyncCommit(image)
		sm, err := Decode[SyncMsg](image)
		if err != nil {
			return
		}
		if cerr != nil {
			t.Fatalf("Decode[SyncMsg] accepts what DecodeSyncCommit rejects: %v", cerr)
		}
		if pid != sm.PID || epoch != sm.Epoch || !slices.Equal(free, sm.FreePIDs) {
			t.Fatalf("commit (%d, %d, %v) disagrees with sync message (%d, %d, %v)", pid, epoch, free, sm.PID, sm.Epoch, sm.FreePIDs)
		}
	})
}
