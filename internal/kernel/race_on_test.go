//go:build race

package kernel_test

// raceEnabled gates the allocation budget: under -race sync.Pool drops what
// is put back at random, so pooled wire buffers are allocated afresh.
const raceEnabled = true
