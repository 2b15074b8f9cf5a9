package memory

import (
	"fmt"
	"testing"
)

func BenchmarkWriteAt(b *testing.B) {
	for _, span := range []int{8, 256, 4096} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			a := NewAddressSpace(1024)
			data := make([]byte, span)
			for i := range data {
				data[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[0] = byte(i) // force a real change
				a.WriteAt(int64(i%64)*1024, data)
			}
		})
	}
}

func BenchmarkKVFlush(b *testing.B) {
	for _, keys := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			kv, _ := NewKV(NewAddressSpace(1024))
			for i := 0; i < keys; i++ {
				kv.PutUint64(fmt.Sprintf("key/%04d", i), uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kv.PutUint64("key/0000", uint64(i))
				kv.Flush()
			}
		})
	}
}
