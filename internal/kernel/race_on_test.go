//go:build race

package kernel

// raceEnabled gates the allocation tests: under -race sync.Pool drops what
// is put back at random, so pooled wire buffers are allocated afresh, and
// the detector's own bookkeeping allocates.
const raceEnabled = true
