package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"auragen/internal/memory"
	"auragen/internal/types"
)

func TestSyncMsgMinimal(t *testing.T) {
	in := &SyncMsg{PID: 1, Program: "p"}
	out, err := Decode[SyncMsg](Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.PID != 1 || out.Program != "p" || out.Suppress != nil {
		t.Fatalf("minimal round trip: %+v", out)
	}
}

func TestBirthNoticeRoundTrip(t *testing.T) {
	in := &BirthNotice{
		Parent:         100,
		Child:          105,
		Program:        "short-lived",
		Args:           []byte("x"),
		Mode:           types.Halfback,
		Family:         100,
		PrimaryCluster: 2,
		SignalChannel:  44,
		Channels: []ChannelInfo{
			{Channel: 41, FD: 0, Peer: 3, PeerCluster: 0, PeerBackupCluster: 1, PeerIsServer: true},
		},
	}
	out, err := Decode[BirthNotice](Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestOpenRequestReplyRoundTrip(t *testing.T) {
	req := &OpenRequest{Opener: 101, Name: "serve:bank", OpenerCluster: 2, OpenerBackupCluster: 0}
	gotReq, err := Decode[OpenRequest](Encode(req))
	if err != nil || !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("request: %v %+v", err, gotReq)
	}
	rep := &OpenReply{Channel: 99, Peer: 101, PeerCluster: 2, PeerBackupCluster: 0, PeerIsServer: false, Err: ""}
	gotRep, err := Decode[OpenReply](Encode(rep))
	if err != nil || !reflect.DeepEqual(rep, gotRep) {
		t.Fatalf("reply: %v %+v", err, gotRep)
	}
	errRep := &OpenReply{Err: "not found"}
	gotErr, err := Decode[OpenReply](Encode(errRep))
	if err != nil || gotErr.Err != "not found" {
		t.Fatalf("error reply: %v %+v", err, gotErr)
	}
}

func TestPagePayloadsRoundTrip(t *testing.T) {
	po := &PageOut{PID: 7, Epoch: 3, From: 2, Pages: []memory.Page{
		{No: 9, Data: []byte{1, 2, 3}},
		{No: 12, Data: []byte{4, 5}},
	}}
	gotPO, err := DecodePageOut(encodeLazy(po))
	if err != nil || gotPO.PID != 7 || gotPO.Epoch != 3 || gotPO.From != 2 ||
		len(gotPO.Pages) != 2 ||
		gotPO.Pages[0].No != 9 || !bytes.Equal(gotPO.Pages[0].Data, []byte{1, 2, 3}) ||
		gotPO.Pages[1].No != 12 || !bytes.Equal(gotPO.Pages[1].Data, []byte{4, 5}) {
		t.Fatalf("page-out: %v %+v", err, gotPO)
	}
	// Corrupting the page batch fails closed: no partial page set.
	enc := encodeLazy(po)
	enc[len(enc)-3] ^= 0x10
	if bad, err := DecodePageOut(enc); err == nil {
		t.Fatalf("corrupted page-out decoded: %+v", bad)
	}
	pr := &PageRequest{PID: 7, ReplyTo: 1}
	gotPR, err := Decode[PageRequest](Encode(pr))
	if err != nil || !reflect.DeepEqual(pr, gotPR) {
		t.Fatalf("page request: %v %+v", err, gotPR)
	}
	rep := &PageReply{PID: 7, Pages: []memory.Page{{No: 1, Data: []byte{5}}, {No: 2, Data: []byte{6}}}}
	gotRep, err := Decode[PageReply](Encode(rep))
	if err != nil || len(gotRep.Pages) != 2 || gotRep.Pages[1].Data[0] != 6 {
		t.Fatalf("page reply: %v %+v", err, gotRep)
	}
}

func TestExitNoticeRoundTrip(t *testing.T) {
	in := &ExitNotice{PID: 105, Parent: 100, NeverSynced: true, FreePIDs: []types.PID{106, 107}}
	out, err := Decode[ExitNotice](Encode(in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("%v %+v", err, out)
	}
}

func TestCrashNoticeAndBackupUpRoundTrip(t *testing.T) {
	cn := &CrashNotice{Crashed: 5, Inc: 7}
	gotCN, err := Decode[CrashNotice](Encode(cn))
	if err != nil || gotCN.Crashed != 5 || gotCN.Inc != 7 {
		t.Fatalf("crash notice: %v %+v", err, gotCN)
	}
	bu := &BackupUp{PID: 101, BackupCluster: 3}
	gotBU, err := Decode[BackupUp](Encode(bu))
	if err != nil || !reflect.DeepEqual(bu, gotBU) {
		t.Fatalf("backup up: %v %+v", err, gotBU)
	}
}

// TestCrashNoticeIncarnationProperty: every incarnation value — including
// the extremes a long-lived system could reach — survives the notice
// round-trip exactly, and any truncation of the encoding fails closed. A
// notice whose incarnation silently decoded as zero would un-fence a stale
// primary, so the stamp must never be droppable.
func TestCrashNoticeIncarnationProperty(t *testing.T) {
	incs := []types.Incarnation{0, 1, 2, 255, 1 << 16, 1<<32 - 1}
	for _, inc := range incs {
		in := &CrashNotice{Crashed: 3, PID: 42, Inc: inc}
		enc := Encode(in)
		out, err := Decode[CrashNotice](enc)
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Fatalf("inc %d: %v %+v", inc, err, out)
		}
		for cut := 0; cut < len(enc); cut++ {
			if got, err := Decode[CrashNotice](enc[:cut]); err == nil {
				t.Fatalf("inc %d: truncation at %d decoded %+v", inc, cut, got)
			}
		}
	}
}

func TestBackupImageRoundTrip(t *testing.T) {
	in := &BackupImage{
		Sync: &SyncMsg{PID: 101, Epoch: 4, Program: "echo-server", Args: []byte("x")},
		Queues: []SavedMessage{
			{Channel: 7, Kind: types.KindData, Src: 102, Seq: 11, Payload: []byte("a")},
			{Channel: 8, Kind: types.KindSignal, Src: 1, Seq: 12, Payload: []byte{2}},
		},
		Writes:       map[types.ChannelID]uint32{7: 2},
		BornChildren: [][]byte{{9, 9}},
	}
	out, err := Decode[BackupImage](Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Sync.PID != 101 || out.Sync.Epoch != 4 {
		t.Fatalf("sync part: %+v", out.Sync)
	}
	if !reflect.DeepEqual(in.Queues, out.Queues) || !reflect.DeepEqual(in.Writes, out.Writes) {
		t.Fatalf("queues/writes mismatch")
	}
	if len(out.BornChildren) != 1 || !bytes.Equal(out.BornChildren[0], []byte{9, 9}) {
		t.Fatal("born children mismatch")
	}
}

func TestServerSyncMsgRoundTrip(t *testing.T) {
	in := &ServerSyncMsg{PID: 3, Blob: []byte("state"), Discards: map[types.ChannelID]uint32{4: 2, 9: 1}}
	out, err := Decode[ServerSyncMsg](Encode(in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("%v %+v", err, out)
	}
}

func TestProcProtocolRoundTrip(t *testing.T) {
	for _, in := range []ProcMsg{{Op: ProcOpAlarm, Arg: 12345}, {Op: ProcOpTime, Arg: 999}} {
		out, err := Decode[ProcMsg](Encode(&in))
		if err != nil || *out != in {
			t.Fatalf("%v %+v, want %+v", err, out, in)
		}
	}
}

func TestDecisionMsgRoundTrip(t *testing.T) {
	in := &DecisionMsg{PID: 21, Seq: 9, Reads: 144}
	out, err := Decode[DecisionMsg](Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if _, err := Decode[DecisionMsg]([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode[DecisionMsg](append(Encode(in), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
