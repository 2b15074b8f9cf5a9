// Package clean_ok is the negative fixture: a deterministic-core package
// with no violations, proving the checks do not fire on idiomatic code.
package clean_ok

import (
	"sort"
	"sync"

	"auragen/internal/bus"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Flush emits in sorted key order: the map feeds a sorted slice, not the
// emission itself.
func Flush(log *trace.EventLog, pending map[int]string) {
	keys := make([]int, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		log.Add(trace.EvNote, pending[k])
	}
}

// Publish handles the broadcast error and holds no lock across the call.
func Publish(b *bus.Bus, ms []*types.Message) error {
	_, err := b.BroadcastBatch(ms)
	return err
}

// PooledRoundTrip follows the sanctioned pooled-writer lifecycle: deferred
// put, bytes copied into a fresh slice before release, writer only ever
// borrowed by encoding helpers.
func PooledRoundTrip() []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U32(9)
	return append([]byte(nil), w.Bytes()...)
}

// PooledAllPaths puts the writer back on both the early return and the
// fall-through path.
func PooledAllPaths(n int) int {
	w := wire.GetWriter()
	w.U32(uint32(n))
	if n == 0 {
		wire.PutWriter(w)
		return 0
	}
	sz := w.Len()
	wire.PutWriter(w)
	return sz
}

// ordered owns two lock classes acquired in one global order everywhere:
// the acquisition-order graph stays acyclic.
type ordered struct {
	amu sync.Mutex
	bmu sync.Mutex
}

// Both nests bmu inside amu — the only nesting order in the program.
func (o *ordered) Both() {
	o.amu.Lock()
	defer o.amu.Unlock()
	o.bmu.Lock()
	defer o.bmu.Unlock()
}

// BOnly takes bmu alone: using a class without nesting adds no edge.
func (o *ordered) BOnly() {
	o.bmu.Lock()
	defer o.bmu.Unlock()
}
