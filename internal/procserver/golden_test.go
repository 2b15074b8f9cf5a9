package procserver

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestSyncBlobGolden pins the pending-alarm blob's encoding, keys in
// ascending order, and applies the pinned bytes to a twin. The bytes were
// captured from the hand-written encoder the wire.Codec description
// replaced; it walked the map in Go's random order, so this is the one of
// its encodings that the sorted-key codec keeps.
func TestSyncBlobGolden(t *testing.T) {
	const golden = "02000000650000000000000078777675747372710807060504030201feffffffffffffff"
	a := New(4, nil)
	a.alarms[0x0102030405060708] = -2
	a.alarms[101] = 0x7172737475767778
	if got := hex.EncodeToString(a.SyncBlob()); got != golden {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, golden)
	}
	b := New(4, nil)
	blob, _ := hex.DecodeString(golden)
	b.ApplySync(blob)
	if !reflect.DeepEqual(b.alarms, a.alarms) {
		t.Fatalf("applied %v, want %v", b.alarms, a.alarms)
	}
}
