package wire

import "sync"

// The writer pool removes the per-message buffer allocation from the hot
// send path. Ownership rules (see DESIGN.md, "Buffer-pool ownership"):
//
//   - GetWriter transfers exclusive ownership to the caller.
//   - The caller may hand w.Bytes() to the bus, because the bus copies the
//     payload into its own memory inside the critical section; once
//     BroadcastBatch returns, no component retains the slice.
//   - PutWriter returns ownership to the pool. After that, neither the
//     Writer nor any slice previously obtained from Bytes() may be used:
//     the next GetWriter anywhere in the process may recycle the storage.
//   - A payload that must outlive the transmission (saved queues, backup
//     images, test fixtures) is copied out — or encoded with a plain
//     NewWriter, which is why cold-path Encode() methods do not pool.

// maxPooledCap bounds the capacity of buffers the pool will retain.
// Oversized buffers (a huge page batch) are dropped on Put so one burst
// does not pin its high-water mark in memory forever.
const maxPooledCap = 1 << 18 // 256 KiB

var writerPool = sync.Pool{
	New: func() any { return NewWriter(1024) },
}

// GetWriter returns an empty Writer from the pool, allocating only when
// the pool is dry. The caller owns it until PutWriter.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the pool. The caller must not touch w — or any
// slice obtained from w.Bytes() — afterwards. nil is ignored.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledCap {
		return
	}
	writerPool.Put(w)
}
