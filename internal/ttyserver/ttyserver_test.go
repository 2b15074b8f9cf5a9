package ttyserver

import (
	"reflect"
	"testing"

	"auragen/internal/types"
)

func TestDeviceOutput(t *testing.T) {
	d := NewDevice(func() {})
	d.Write(1, "a")
	d.Write(1, "b")
	d.Write(2, "c")
	if got := d.Output(1); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Output(1) = %v", got)
	}
	if got := d.Output(9); len(got) != 0 {
		t.Fatalf("Output(9) = %v", got)
	}
	// Output returns a copy.
	out := d.Output(1)
	out[0] = "mutated"
	if d.Output(1)[0] != "a" {
		t.Fatal("Output aliases device state")
	}
}

func TestEncodersDecodeInReceiveShapes(t *testing.T) {
	// WriteReq and ReadReq must carry their op bytes.
	if WriteReq("x")[0] != opWrite {
		t.Fatal("WriteReq op byte")
	}
	if ReadReq()[0] != opRead {
		t.Fatal("ReadReq op byte")
	}
	if EncodeBind(5, 3, 100)[0] != opBind {
		t.Fatal("EncodeBind op byte")
	}
}

// applySyncRoundTrip verifies that a twin fed ApplySync(SyncBlob()) renders
// an identical blob — state transferred losslessly.
func TestSyncBlobRoundTrip(t *testing.T) {
	a := New(5, NewDevice(func() {}))
	a.bindings[10] = ttyBinding{Term: 1, User: 100, Serial: 7}
	a.bindings[11] = ttyBinding{Term: 2, User: 101}
	a.inputs[1] = []string{"line1", "line2"}
	a.pendingReads[2] = []types.ChannelID{11}

	blob := a.SyncBlob()
	b := New(5, NewDevice(func() {}))
	b.ApplySync(blob)
	if !reflect.DeepEqual(a.bindings, b.bindings) {
		t.Fatalf("bindings: %v vs %v", a.bindings, b.bindings)
	}
	if !reflect.DeepEqual(a.inputs, b.inputs) {
		t.Fatalf("inputs: %v vs %v", a.inputs, b.inputs)
	}
	if !reflect.DeepEqual(a.pendingReads, b.pendingReads) {
		t.Fatalf("pending: %v vs %v", a.pendingReads, b.pendingReads)
	}
	if b.bindings[10].Serial != 7 {
		t.Fatalf("write serials lost: %v", b.bindings)
	}
	// Deterministic serialization.
	if string(blob) != string(b.SyncBlob()) {
		t.Fatal("blob not canonical")
	}
}

func TestApplySyncRejectsGarbageWithoutClobbering(t *testing.T) {
	s := New(5, NewDevice(func() {}))
	s.bindings[10] = ttyBinding{Term: 1, User: 100}
	s.ApplySync([]byte{1, 2, 3})
	if len(s.bindings) != 1 {
		t.Fatal("garbage blob clobbered state")
	}
}

func TestEmptyBlobRoundTrip(t *testing.T) {
	a := New(5, NewDevice(func() {}))
	b := New(5, NewDevice(func() {}))
	b.bindings[9] = ttyBinding{Term: 9, User: 9}
	b.ApplySync(a.SyncBlob())
	if len(b.bindings) != 0 {
		t.Fatal("empty blob did not reset state")
	}
}

func TestDeviceWriteDedup(t *testing.T) {
	d := NewDevice(func() {})
	d.writeDedup(1, "a", 5, 1)
	d.writeDedup(1, "b", 5, 2)
	d.writeDedup(1, "a-replayed", 5, 1) // duplicate serial: ignored
	d.writeDedup(1, "b-replayed", 5, 2) // duplicate serial: ignored
	d.writeDedup(1, "c", 5, 3)
	got := d.Output(1)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("output = %v", got)
	}
	// Distinct channels dedup independently.
	d.writeDedup(1, "x", 6, 1)
	if len(d.Output(1)) != 4 {
		t.Fatal("cross-channel serial collision")
	}
}
