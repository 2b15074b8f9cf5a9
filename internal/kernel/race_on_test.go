//go:build race

package kernel

// raceEnabled gates the allocation tests: under -race the detector's own
// bookkeeping allocates.
const raceEnabled = true
