package kernel

import (
	"auragen/internal/memory"
	"auragen/internal/types"
)

// Golden values: one fully populated value per payload type — every field
// non-zero, every slice non-empty, every map holding at least two keys
// listed out of order — so the golden encodings pin each field's place and
// width and the maps' key order.

func goldenChannels() []ChannelInfo {
	return []ChannelInfo{
		{Channel: 0x0102030405060708, FD: 3, Reads: 0x11223344, Peer: 0x2122232425262728,
			PeerCluster: 2, PeerBackupCluster: -1, PeerIsServer: true},
		{Channel: 12, FD: 4, Reads: 5, Peer: 102, PeerCluster: 1, PeerBackupCluster: 3, PeerIsServer: true},
	}
}

func goldenSync() *SyncMsg {
	return &SyncMsg{
		PID:             0x3132333435363738,
		Epoch:           0x41424344,
		Program:         "bank-server",
		Mode:            types.Fullback,
		Family:          100,
		Parent:          99,
		Args:            []byte("bank 20 1000 3"),
		PrimaryCluster:  2,
		Regs:            []byte{1, 2, 3},
		NextFD:          5,
		SignalNext:      true,
		SigIgnore:       []types.Signal{types.SigUser, types.SigInt},
		SignalChannel:   9,
		Channels:        goldenChannels(),
		ClosedChannels:  []types.ChannelID{44, 45},
		FreePIDs:        []types.PID{103, 104},
		Suppress:        map[types.ChannelID]uint32{12: 3, 7: 1, 0x0102030405060708: 2},
		NondetRemaining: []uint64{0x5152535455565758, 6},
		Establish:       true,
		EstablishDupes:  map[types.ChannelID]uint32{30: 2, 20: 1},
		TotalReads:      0x6162636465666768,
	}
}

func goldenBirth() *BirthNotice {
	return &BirthNotice{
		Parent:         100,
		Child:          105,
		Program:        "short-lived",
		Args:           []byte("x y"),
		Mode:           types.Halfback,
		Family:         98,
		PrimaryCluster: 2,
		SignalChannel:  44,
		Channels:       goldenChannels(),
		Established:    true,
	}
}

func goldenMessage() *types.Message {
	return &types.Message{
		ID:      0x7172737475767778,
		Kind:    types.KindData,
		Channel: 0x0102030405060708,
		Src:     33,
		Dst:     44,
		Route:   types.Route{Dst: 1, DstBackup: 2, SrcBackup: -1},
		Origin:  3,
		Inc:     7,
		Seq:     0x0a0b0c0d,
		Payload: []byte("xfer 3 4 7"),
		Nondet:  []uint64{9, 0x8182838485868788},
	}
}

func goldenBackupImage() *BackupImage {
	return &BackupImage{
		Sync: goldenSync(),
		Queues: []SavedMessage{
			{Channel: 7, Kind: types.KindData, Src: 102, Seq: 11, Payload: []byte("a")},
			{Channel: 8, Kind: types.KindSignal, Src: 1, Seq: 12, Payload: []byte{2}},
		},
		Writes:       map[types.ChannelID]uint32{9: 2, 7: 1, 8: 4},
		BornChildren: [][]byte{{9, 9}, {1}},
		NondetLog:    []uint64{4, 5},
		Decisions:    []uint64{6, 7},
	}
}

func goldenPageOut() *PageOut {
	return &PageOut{PID: 7, Epoch: 3, From: 2, Pages: []memory.Page{
		{No: 9, Data: []byte{1, 2, 3}},
		{No: 12, Data: []byte{4, 5}},
	}}
}

func goldenPageReply() *PageReply {
	return &PageReply{PID: 7, Pages: []memory.Page{{No: 1, Data: []byte{5}}, {No: 2, Data: []byte{6, 7}}}}
}
