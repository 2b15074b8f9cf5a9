// Package lockcycle_bad seeds AURO010 violations: an AB/BA lock-order
// cycle across two functions, and same-class nesting outside any
// sanctioned ordering discipline.
package lockcycle_bad

import "sync"

// Pair owns two distinct lock classes.
type Pair struct {
	amu sync.Mutex
	bmu sync.Mutex
}

// AthenB acquires amu then bmu. On its own this fixes an order; the
// cycle finding lands here because BthenA closes the loop.
func (p *Pair) AthenB() {
	p.amu.Lock()
	defer p.amu.Unlock()
	p.bmu.Lock() // want "AURO010"
	defer p.bmu.Unlock()
}

// BthenA acquires the same pair in the opposite order: two goroutines
// running AthenB and BthenA can deadlock.
func (p *Pair) BthenA() {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	p.amu.Lock()
	defer p.amu.Unlock()
}

// List is a linked node whose per-node mutex is one lock class shared by
// every instance.
type List struct {
	mu   sync.Mutex
	next *List
}

// PushPair nests two instances of the same class with no sanctioned
// discipline: List.mu is not in OrderedLockClasses for this function.
func (l *List) PushPair() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next.mu.Lock() // want "AURO010"
	l.next.mu.Unlock()
}

// Ordered nests the same class but is listed in the fixture config's
// OrderedLockClasses (modeling bus.BroadcastBatch's under-the-bus-lock
// discipline), so it is not flagged.
func (l *List) Ordered() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next.mu.Lock()
	l.next.mu.Unlock()
}
