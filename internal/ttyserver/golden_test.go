package ttyserver

import (
	"encoding/hex"
	"reflect"
	"testing"

	"auragen/internal/types"
)

// TestSyncBlobGolden pins the sync blob's encoding for a fully populated
// server (maps with at least two keys, inserted out of order) and applies
// the pinned bytes to a twin. The encoding was captured from the
// hand-written encoder the wire.Codec description replaced.
func TestSyncBlobGolden(t *testing.T) {
	const golden = "020000000a00000000000000ffffffffffffffff640000000000000007000000000000000b0000000000000002000000" +
		"000000006500000000000000080706050403020102000000010000000000000002000000050000006c696e6531050000" +
		"006c696e6532030000000000000001000000050000006c696e6533020000000100000000000000010000000c00000000" +
		"0000000200000000000000020000000b000000000000000a00000000000000"
	a := New(5, NewDevice(func() {}))
	a.bindings[11] = ttyBinding{Term: 2, User: 101, Serial: 0x0102030405060708}
	a.bindings[10] = ttyBinding{Term: -1, User: 100, Serial: 7}
	a.inputs[3] = []string{"line3"}
	a.inputs[1] = []string{"line1", "line2"}
	a.pendingReads[2] = []types.ChannelID{11, 10}
	a.pendingReads[1] = []types.ChannelID{12}
	if got := hex.EncodeToString(a.SyncBlob()); got != golden {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, golden)
	}
	b := New(5, NewDevice(func() {}))
	blob, _ := hex.DecodeString(golden)
	b.ApplySync(blob)
	if !reflect.DeepEqual(b.replicated, a.replicated) {
		t.Fatalf("applied %+v, want %+v", b.replicated, a.replicated)
	}
}
