package fileserver

import (
	"encoding/hex"
	"reflect"
	"testing"

	"auragen/internal/types"
	"auragen/internal/wire"
)

// TestWireGolden pins the encoding of every file-server wire type, each
// value fully populated (maps with at least two keys, listed out of order),
// and decodes the pinned bytes back to the value. The encodings were
// captured from the hand-written encoders that wire.Codec descriptions
// replaced.
func TestWireGolden(t *testing.T) {
	st := newReplicated()
	st.nextChan = 0x0102030405060708
	st.bindings[12] = &binding{Kind: bindTTY, Name: "tty:1", Offset: 7, User: 101}
	st.bindings[9] = &binding{Kind: bindFile, Name: "ledger", Offset: -3, User: 102}
	st.pending["chan:b"] = pendingPair{Opener: 103, ControlCh: 40, OpenerCluster: 2, OpenerBackup: -1}
	st.pending["chan:a"] = pendingPair{Opener: 104, ControlCh: 41, OpenerCluster: 1, OpenerBackup: 0}
	st.services["serve:y"] = serviceReg{Listener: 105, ListenCh: 50, ListenerCluster: 3, ListenerBackup: 2}
	st.services["serve:x"] = serviceReg{Listener: 106, ListenCh: 51, ListenerCluster: 0, ListenerBackup: 1}
	st.pendingServe["serve:z"] = []pendingPair{{Opener: 107, ControlCh: 60, OpenerCluster: 1, OpenerBackup: 2}, {Opener: 108, ControlCh: 61, OpenerCluster: 2, OpenerBackup: 1}}
	st.pendingServe["serve:w"] = []pendingPair{{Opener: 109, ControlCh: 62, OpenerCluster: 0, OpenerBackup: 3}}
	st.serviced[9] = 12
	st.serviced[7] = 3
	rec := &serverRecord{
		Blob: []byte("state-blob"),
		Log: []requestRecord{
			{ReqCh: 7, Replies: []loggedReply{{Ch: 7, Dst: 101, Kind: types.KindData, Payload: []byte("ok 1")}}},
			{ReqCh: 9, Replies: []loggedReply{
				{Ch: 9, Dst: 102, Kind: types.KindOpenReply, Payload: []byte{1, 2}},
				{Ch: 11, Dst: 103, Kind: types.KindOpenReply, Payload: []byte{3}},
			}},
		},
	}
	cases := []struct {
		name   string
		value  interface{ codec(*wire.Codec) }
		fresh  interface{ codec(*wire.Codec) }
		golden string
	}{
		{"Request", &Request{Op: OpWrite, Offset: -5, Count: 0x01020304, Data: []byte("payload")}, new(Request),
			"02fbffffffffffffff04030201070000007061796c6f6164"},
		{"Reply", &Reply{Err: "eof", Size: 0x0102030405060708, Data: []byte("data")}, new(Reply),
			"03000000656f6608070605040302010400000064617461"},
		{"serverRecord", rec, new(serverRecord),
			"0a00000073746174652d626c6f6202000000070000000000000001000000070000000000000065000000000000000104" +
				"0000006f6b203109000000000000000200000009000000000000006600000000000000030200000001020b0000000000" +
				"00006700000000000000030100000003"},
		{"SyncBlob", &st, &replicated{},
			"080706050403020102000000090000000000000001060000006c6564676572fdffffffffffffff66000000000000000c" +
				"0000000000000002050000007474793a310700000000000000650000000000000002000000060000006368616e3a6168" +
				"0000000000000029000000000000000100000000000000060000006368616e3a62670000000000000028000000000000" +
				"0002000000ffffffff020000000700000073657276653a786a0000000000000033000000000000000000000001000000" +
				"0700000073657276653a7969000000000000003200000000000000030000000200000002000000070000007365727665" +
				"3a77010000006d000000000000003e0000000000000000000000030000000700000073657276653a7a020000006b0000" +
				"00000000003c0000000000000001000000020000006c000000000000003d000000000000000200000001000000020000" +
				"000700000000000000030000000000000009000000000000000c00000000000000"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(wire.Encode(tc.value.codec)); got != tc.golden {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", tc.name, got, tc.golden)
		}
		b, _ := hex.DecodeString(tc.golden)
		if err := wire.Decode(b, tc.fresh.codec); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(tc.fresh, tc.value) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, tc.fresh, tc.value)
		}
	}
}
