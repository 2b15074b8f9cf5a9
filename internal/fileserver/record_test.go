package fileserver

import (
	"bytes"
	"reflect"
	"testing"

	"auragen/internal/disk"
	"auragen/internal/types"
	"auragen/internal/wire"
)

func TestServerRecordRoundTrip(t *testing.T) {
	in := &serverRecord{
		Blob: []byte("state-blob"),
		Log: []requestRecord{
			{ReqCh: 7, Replies: []loggedReply{
				{Ch: 7, Dst: 101, Kind: types.KindData, Payload: []byte("ok 1")},
			}},
			{ReqCh: 9, Replies: []loggedReply{
				{Ch: 9, Dst: 102, Kind: types.KindOpenReply, Payload: []byte{1, 2}},
				{Ch: 11, Dst: 103, Kind: types.KindOpenReply, Payload: []byte{3}},
			}},
		},
	}
	out := new(serverRecord)
	if err := wire.Decode(wire.Encode(in.codec), out.codec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("record = %+v", out)
	}
}

func TestServerRecordRejectsGarbage(t *testing.T) {
	if err := wire.Decode([]byte{1, 2, 3}, new(serverRecord).codec); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPersistedRecordSurvivesMount(t *testing.T) {
	d := disk.New("rec", 256, 0, 1)
	super, err := Format(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := mount(d, 0, super)
	if err != nil {
		t.Fatal(err)
	}
	// Record larger than one block, committed with a file flush.
	record := bytes.Repeat([]byte("R"), 700)
	v.create("/x")
	v.writeFile("/x", 0, []byte("data"))
	if _, err := v.flush(record); err != nil {
		t.Fatal(err)
	}
	v2, err := mount(d, 1, super)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2.persisted, record) {
		t.Fatalf("persisted record lost: %d bytes vs %d", len(v2.persisted), len(record))
	}
	// A record-only change (no dirty files) must still commit.
	record2 := []byte("second")
	if _, err := v2.flush(record2); err != nil {
		t.Fatal(err)
	}
	v3, err := mount(d, 0, super)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3.persisted, record2) {
		t.Fatalf("record-only flush not committed: %q", v3.persisted)
	}
	// Identical record + clean cache: no-op.
	_, before := d.Stats()
	if _, err := v3.flush(record2); err != nil {
		t.Fatal(err)
	}
	if _, after := d.Stats(); after != before {
		t.Fatal("no-op flush touched the disk")
	}
}

func TestFreshVolumeHasNoRecord(t *testing.T) {
	d := disk.New("rec", 256, 0, 1)
	super, _ := Format(d, 0)
	v, err := mount(d, 0, super)
	if err != nil {
		t.Fatal(err)
	}
	if v.persisted != nil {
		t.Fatalf("fresh volume has record: %q", v.persisted)
	}
}
