package routing

import (
	"testing"

	"auragen/internal/types"
)

// benchTable is the shape of a real cluster's table: 32 owners with 4
// channels each (file server, process server, signal, one peer), in both
// roles, channel ids interleaved across owners as the directory allocates
// them.
func benchTable() *Table {
	tb := NewTable()
	for i := 0; i < 128; i++ {
		for _, role := range []Role{Primary, Backup} {
			tb.Add(&Entry{Channel: types.ChannelID(1 + i), Owner: types.PID(100 + i%32), Role: role})
		}
	}
	return tb
}

func BenchmarkLookup(b *testing.B) {
	tb := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := i % 128
		if _, ok := tb.Lookup(types.ChannelID(1+ch), types.PID(100+ch%32), Role(i&1)); !ok {
			b.Fatal("missing entry")
		}
	}
}

func BenchmarkOwnedBy(b *testing.B) {
	tb := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tb.OwnedBy(types.PID(100+i%32), Role(i&1)); len(got) != 4 {
			b.Fatalf("OwnedBy returned %d entries", len(got))
		}
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	e := &Entry{Channel: 1, Owner: 100, Role: Primary}
	m := &types.Message{Kind: types.KindData, Payload: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Enqueue(m)
		if _, ok := e.Read(); !ok {
			b.Fatal("empty")
		}
	}
}
