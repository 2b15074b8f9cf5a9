package wire

import (
	"fmt"
	"testing"
)

func BenchmarkWriterMixed(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(300)
		w.U64(uint64(i))
		w.U32(7)
		w.String("channel-info")
		w.Bytes32(payload)
		_ = w.Bytes()
	}
}

func BenchmarkReaderMixed(b *testing.B) {
	w := NewWriter(300)
	w.U64(1)
	w.U32(7)
	w.String("channel-info")
	w.Bytes32(make([]byte, 256))
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		_ = r.U64()
		_ = r.U32()
		_ = r.String()
		_ = r.Bytes32()
		if r.Done() != nil {
			b.Fatal("decode failed")
		}
	}
}

// checksumSink keeps the compiler from discarding the measured call.
var checksumSink uint32

// BenchmarkChecksum measures one pass of the batch checksum over a
// message-sized batch and over a sync's page batch (13 pages of 1 KiB);
// a sync pays that pass three times (encode, page server, its mirror).
func BenchmarkChecksum(b *testing.B) {
	for _, size := range []int{1 << 10, 13 << 10} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = checksum(buf)
			}
		})
	}
}
