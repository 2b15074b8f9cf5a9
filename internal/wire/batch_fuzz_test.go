package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// seedBatches builds the fuzz corpus: valid batches of varied shape (empty,
// nil frames, streamed frames, large frames), plus a few malformed inputs so
// the error paths are in the corpus from the start.
func seedBatches(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(0)
		encodeFrames(w, randomFrames(rng))
		f.Add(append([]byte(nil), w.Bytes()...))
	}
	w := NewWriter(0)
	NewBatchWriter(w).Finish()
	f.Add(append([]byte(nil), w.Bytes()...)) // empty batch
	f.Add([]byte{})                          // too short
	f.Add([]byte("not a batch at all, certainly longer than overhead"))
	corrupt := append([]byte(nil), w.Bytes()...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt)
}

// drainBatch decodes every frame of b, returning the frames and the Done
// verdict.
func drainBatch(b []byte) ([][]byte, error) {
	br := NewBatchReader(b)
	var frames [][]byte
	for {
		f, ok := br.Next()
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	return frames, br.Done()
}

// FuzzBatchReader holds the batch decoder to its fail-closed contract on
// arbitrary input:
//
//   - it never panics;
//   - a rejected input yields zero frames (no partial prefix);
//   - an accepted input is canonical: re-framing the decoded frames
//     reproduces the input byte for byte;
//   - every single-byte mutation of an accepted input is rejected — the
//     trailing CRC-32C covers magic through the last frame byte, and a
//     degree-32 CRC detects every burst of 32 bits or fewer, so a flip
//     inside one byte of the body always changes the sum and a flip in
//     the trailer always mismatches it.
//
// The seed corpus alone exercises all of this under plain `go test`; `go
// test -fuzz=FuzzBatchReader ./internal/wire` explores further.
func FuzzBatchReader(f *testing.F) {
	seedBatches(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := drainBatch(b)
		if err != nil {
			if len(frames) != 0 {
				t.Fatalf("rejected batch yielded %d frames", len(frames))
			}
			return
		}

		w := NewWriter(len(b))
		bw := NewBatchWriter(w)
		for _, fr := range frames {
			bw.Frame(fr)
		}
		bw.Finish()
		if !bytes.Equal(w.Bytes(), b) {
			t.Fatalf("accepted batch is not canonical:\n in: %x\nout: %x", b, w.Bytes())
		}

		// Every single-byte flip must fail closed. Exhaustive for small
		// inputs; a deterministic stride keeps huge fuzzer-grown inputs
		// from going quadratic.
		stride := 1
		if len(b) > 1024 {
			stride = len(b) / 512
		}
		mut := append([]byte(nil), b...)
		for i := 0; i < len(mut); i += stride {
			mut[i] ^= 0x20
			got, err := drainBatch(mut)
			if err == nil || len(got) != 0 {
				t.Fatalf("byte %d flip: decoded %d frames, err=%v", i, len(got), err)
			}
			mut[i] ^= 0x20
		}
	})
}
