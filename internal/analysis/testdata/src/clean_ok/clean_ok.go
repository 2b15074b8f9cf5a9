// Package clean_ok is the negative fixture: a deterministic-core package
// with no violations, proving the checks do not fire on idiomatic code.
package clean_ok

import (
	"sort"
	"sync"

	"auragen/internal/bus"
	"auragen/internal/trace"
	"auragen/internal/types"
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
