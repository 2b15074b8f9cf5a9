package kernel

import (
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"auragen/internal/types"
	"auragen/internal/wire"
)

// payloadCase is one wire type of the kernel: a fully populated value
// (golden_values_test.go), the exact bytes it encodes to, and how to encode
// and decode one.
type payloadCase struct {
	name   string
	value  any
	golden string // hex
	encode func(any) []byte
	decode func([]byte) (any, error)
}

// described builds the case of a type described by one codec method.
func described[T any, P interface {
	*T
	Payload
}](name string, v P, golden string) payloadCase {
	return payloadCase{name, v, golden,
		func(v any) []byte { return Encode(v.(P)) },
		func(b []byte) (any, error) {
			p, err := Decode[T, P](b)
			if err != nil {
				return nil, err
			}
			return p, nil
		}}
}

func encodeLazy(p types.PayloadEncoder) []byte {
	w := wire.NewWriter(0)
	p.EncodePayload(w)
	return w.Bytes()
}

func encodeFrame(m *types.Message) []byte {
	w := wire.NewWriter(0)
	messageFrame(wire.EncodeTo(w), m)
	return w.Bytes()
}

func decodeFrame(b []byte) (*types.Message, error) {
	m := new(types.Message)
	if err := wire.Decode(b, func(c *wire.Codec) { messageFrame(c, m) }); err != nil {
		return nil, err
	}
	return m, nil
}

// payloadCases lists every kernel wire type. The golden encodings were
// captured before the payloads were described by wire.Codec, from the
// hand-written encoders they replaced; they pin the wire format.
func payloadCases() []payloadCase {
	return []payloadCase{
		described("SyncMsg", goldenSync(),
			"38373635343332314443424102000000670000000000000068000000000000000b00000062616e6b2d73657276657202"+
				"640000000000000063000000000000000e00000062616e6b203230203130303020330200000003000000010203050000"+
				"000102000000040109000000000000000200000008070605040302010300000044332211282726252423222102000000"+
				"ffffffff010c0000000000000004000000050000006600000000000000010000000300000001020000002c0000000000"+
				"00002d00000000000000030000000700000000000000010000000c000000000000000300000008070605040302010200"+
				"0000020000005857565554535251060000000000000001020000001400000000000000010000001e0000000000000002"+
				"0000006867666564636261"),
		described("DecisionMsg", &DecisionMsg{PID: 21, Seq: 0x0102030405060708, Reads: 144},
			"150000000000000008070605040302019000000000000000"),
		described("BirthNotice", goldenBirth(),
			"640000000000000069000000000000000b00000073686f72742d6c697665640300000078207901620000000000000002"+
				"0000002c000000000000000200000008070605040302010300000044332211282726252423222102000000ffffffff01"+
				"0c000000000000000400000005000000660000000000000001000000030000000101"),
		described("OpenRequest", &OpenRequest{Opener: 101, Name: "serve:bank", OpenerCluster: 2, OpenerBackupCluster: 1},
			"65000000000000000a00000073657276653a62616e6b0200000001000000"),
		described("OpenReply", &OpenReply{Channel: 99, Peer: 101, PeerCluster: 2, PeerBackupCluster: 1, PeerIsServer: true, Err: "not found"},
			"63000000000000006500000000000000020000000100000001090000006e6f7420666f756e64"),
		{"PageOut", goldenPageOut(),
			"0700000000000000030000000200000041425402020000000b00000009000000030000000102030a0000000c00000002" +
				"0000000405efa3fe9f",
			func(v any) []byte { return encodeLazy(v.(*PageOut)) },
			func(b []byte) (any, error) {
				p, err := DecodePageOut(b)
				if err != nil {
					return nil, err
				}
				return p, nil
			}},
		described("PageRequest", &PageRequest{PID: 7, ReplyTo: 1},
			"070000000000000001000000"),
		described("PageReply", goldenPageReply(),
			"07000000000000000200000001000000010000000502000000020000000607"),
		described("ExitNotice", &ExitNotice{PID: 105, Parent: 100, NeverSynced: true, FreePIDs: []types.PID{106, 107}},
			"6900000000000000640000000000000001020000006a000000000000006b00000000000000"),
		described("CrashNotice", &CrashNotice{Crashed: 5, PID: 42, Inc: 0xfffffffe},
			"050000002a00000000000000feffffff"),
		described("BackupUp", &BackupUp{PID: 101, BackupCluster: 3, Origin: 2, NeedAck: true},
			"6500000000000000030000000200000001"),
		described("BackupAck", &BackupAck{PID: 101, From: 3},
			"650000000000000003000000"),
		// Mark came after the capture; its bytes are one little-endian u64.
		described("Mark", &Mark{N: 0x0102030405060708},
			"0807060504030201"),
		described("BackupImage", goldenBackupImage(),
			"2b01000038373635343332314443424102000000670000000000000068000000000000000b00000062616e6b2d736572"+
				"76657202640000000000000063000000000000000e00000062616e6b2032302031303030203302000000030000000102"+
				"030500000001020000000401090000000000000002000000080706050403020103000000443322112827262524232221"+
				"02000000ffffffff010c0000000000000004000000050000006600000000000000010000000300000001020000002c00"+
				"0000000000002d00000000000000030000000700000000000000010000000c0000000000000003000000080706050403"+
				"020102000000020000005857565554535251060000000000000001020000001400000000000000010000001e00000000"+
				"0000000200000068676665646362610200000007000000000000000166000000000000000b0000000000000001000000"+
				"6108000000000000000601000000000000000c0000000000000001000000020300000007000000000000000100000008"+
				"000000000000000400000009000000000000000200000002000000020000000909010000000102000000040000000000"+
				"000005000000000000000200000006000000000000000700000000000000"),
		described("ServerSyncMsg", &ServerSyncMsg{PID: 3, Blob: []byte("state"), Discards: map[types.ChannelID]uint32{9: 1, 4: 2}},
			"030000000000000005000000737461746502000000040000000000000002000000090000000000000001000000"),
		described("ProcRequest", &ProcMsg{Op: ProcOpAlarm, Arg: 12345},
			"023930000000000000"),
		described("ProcReply", &ProcMsg{Op: ProcOpWhere, Arg: 0x0102030405060708},
			"030807060504030201"),
		{"MessageFrame", goldenMessage(),
			"787776757473727101080706050403020121000000000000002c000000000000000100000002000000ffffffff030000" +
				"00070000000d0c0b0a000000000a000000786665722033203420370200000009000000000000008887868584838281",
			func(v any) []byte { return encodeFrame(v.(*types.Message)) },
			func(b []byte) (any, error) {
				m, err := decodeFrame(b)
				if err != nil {
					return nil, err
				}
				return m, nil
			}},
	}
}

// TestPayloadGolden pins every kernel wire type's encoding byte for byte,
// and decodes the pinned bytes back to the value they came from.
func TestPayloadGolden(t *testing.T) {
	for _, pc := range payloadCases() {
		t.Run(pc.name, func(t *testing.T) {
			if got := hex.EncodeToString(pc.encode(pc.value)); got != pc.golden {
				t.Fatalf("encoding changed:\n got %s\nwant %s", got, pc.golden)
			}
			b, _ := hex.DecodeString(pc.golden)
			got, err := pc.decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, pc.value) {
				t.Fatalf("decoded\n%+v\nwant\n%+v", got, pc.value)
			}
			// Every truncation fails, and so does a trailing byte.
			for cut := 0; cut < len(b); cut++ {
				if v, err := pc.decode(b[:cut]); err == nil {
					t.Fatalf("truncation to %d bytes decoded %+v", cut, v)
				}
			}
			if v, err := pc.decode(append(b, 0)); err == nil {
				t.Fatalf("a trailing byte decoded %+v", v)
			}
		})
	}
}

// FuzzPayload holds every kernel decoder to two properties on arbitrary
// input: it never panics, and what it accepts re-encodes to bytes that
// decode to the same value. Duplicate map keys are why the property is on
// values, not bytes. The seed corpus is the golden encodings and
// truncations of them, plus minimal values (empty slices, maps and
// strings) and an error-string open reply; TestPayloadGolden checks that
// every truncation fails.
func FuzzPayload(f *testing.F) {
	cases := payloadCases()
	for _, pc := range cases {
		b, _ := hex.DecodeString(pc.golden)
		for _, cut := range []int{0, len(b) / 4, len(b) / 2, len(b) * 3 / 4, len(b) - 1, len(b)} {
			f.Add(b[:cut])
		}
	}
	f.Add(Encode(&SyncMsg{PID: 1, Program: "p"}))
	f.Add(Encode(&BackupImage{Sync: &SyncMsg{}}))
	f.Add(Encode(&OpenReply{Err: "not found"}))
	f.Add(encodeFrame(&types.Message{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, pc := range cases {
			v, err := pc.decode(b)
			if err != nil {
				continue
			}
			again, err := pc.decode(pc.encode(v))
			if err != nil {
				t.Fatalf("%s: re-encoding of an accepted input fails to decode: %v", pc.name, err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("%s: decode(encode(v)) = %+v, want %+v", pc.name, again, v)
			}
		}
	})
}

// TestImpossibleCountAllocatesNothing: a count field of 0xFFFFFFFF with
// nothing behind it fails the decode before the count sizes an allocation.
func TestImpossibleCountAllocatesNothing(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	zeros := func(n int) []byte { return make([]byte, n) }
	join := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	inputs := map[string][]byte{ // by payload case: the fields before a count, then the count
		"SyncMsg":       join(zeros(12), huge),
		"PageReply":     join(zeros(8), huge),
		"ServerSyncMsg": join(zeros(12), huge),
		"ExitNotice":    join(zeros(17), huge),
		"BackupImage":   join(Encode(&BackupImage{Sync: &SyncMsg{}})[:4+len(Encode(&SyncMsg{}))], huge),
		"MessageFrame":  join(zeros(69-4), huge),
	}
	for _, pc := range payloadCases() {
		b, ok := inputs[pc.name]
		if !ok {
			continue
		}
		perRun := heapBytesPerRun(100, func() {
			if _, err := pc.decode(b); err == nil {
				t.Errorf("%s decoded an impossible count", pc.name)
			}
		})
		if perRun >= 1<<10 {
			t.Errorf("%s allocated %d B decoding an impossible count", pc.name, perRun)
		}
	}
	for _, b := range [][]byte{join(zeros(12), huge), huge} {
		if perRun := heapBytesPerRun(100, func() { DecodeSyncCommit(b) }); perRun >= 1<<10 {
			t.Errorf("DecodeSyncCommit allocated %d B on an impossible count", perRun)
		}
	}
}

// heapBytesPerRun reports the mean bytes f allocates per call.
func heapBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSyncCodecAllocations: the lazy sync encode into a reused writer and
// the page servers' commit decode of a sync with no child to free allocate
// nothing.
func TestSyncCodecAllocations(t *testing.T) {
	s := goldenSync()
	s.Suppress, s.EstablishDupes = nil, nil // the common shape: no roll-forward debt
	w := wire.NewWriter(1 << 10)
	if n := testing.AllocsPerRun(100, func() {
		w.Reset()
		s.EncodePayload(w)
	}); n != 0 {
		t.Errorf("SyncMsg.EncodePayload allocated %v times, want 0", n)
	}
	s.FreePIDs = nil
	image := Encode(s)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeSyncCommit(image); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeSyncCommit allocated %v times, want 0", n)
	}
}
