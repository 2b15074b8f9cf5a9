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

// BenchmarkBatchEncode frames 64 records per batch into one writer, reset
// per batch, as the kernel's transmit writer is per payload.
func BenchmarkBatchEncode(b *testing.B) {
	payload := make([]byte, 64)
	w := NewWriter(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		bw := NewBatchWriter(w)
		for j := 0; j < 64; j++ {
			bw.Frame(payload)
		}
		bw.Finish()
		_ = w.Bytes()
	}
}

// BenchmarkBatchDecode iterates the frames of a 64-record batch.
func BenchmarkBatchDecode(b *testing.B) {
	payload := make([]byte, 64)
	w := NewWriter(0)
	bw := NewBatchWriter(w)
	for j := 0; j < 64; j++ {
		bw.Frame(payload)
	}
	bw.Finish()
	buf := w.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br := NewBatchReader(buf)
		for {
			if _, ok := br.Next(); !ok {
				break
			}
		}
		if err := br.Done(); err != nil {
			b.Fatal(err)
		}
	}
}
