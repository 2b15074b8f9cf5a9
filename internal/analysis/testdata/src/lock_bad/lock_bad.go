// Package lock_bad seeds AURO004 violations: blocking cross-component
// calls made while a mutex is held — including the branch and defer blind
// spots the old statement-order scan missed, and calls that reach the
// blocking call interprocedurally.
package lock_bad

import (
	"sync"

	"auragen/internal/bus"
	"auragen/internal/types"
)

// Node owns a mutex, a bus handle and its cluster's inbox.
type Node struct {
	mu sync.Mutex
	b  *bus.Bus
	in *bus.Inbox
}

// Publish broadcasts with the mutex held via defer.
func (n *Node) Publish(ms []*types.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.b.BroadcastBatch(ms) // want "AURO004"
	return err
}

// publishLocked follows the *Locked naming convention: it is entered with
// the owner's mutex already held.
func (n *Node) publishLocked(ms []*types.Message) error {
	_, err := n.b.BroadcastBatch(ms) // want "AURO004"
	return err
}

// Drain blocks on the inbox — the executive's only consume call — with the
// mutex held: nothing that needs the mutex can run until a message arrives.
func (n *Node) Drain(buf []types.Message) []types.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms, _ := n.in.PopAll(buf) // want "AURO004"
	return ms
}

// Indirect reaches the broadcast through a package-local helper. The
// finding lands on the call made under the lock: send itself is lock-free
// and fine to call elsewhere.
func (n *Node) Indirect(ms []*types.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.send(ms) // want "AURO004"
}

func (n *Node) send(ms []*types.Message) error {
	_, err := n.b.BroadcastBatch(ms)
	return err
}

// Branch locks on one path only; the mutex may still be held at the join,
// so the broadcast after it is flagged (the branch blind spot a
// statement-order scan misses).
func (n *Node) Branch(ms []*types.Message, lock bool) error {
	if lock {
		n.mu.Lock()
	}
	_, err := n.b.BroadcastBatch(ms) // want "AURO004"
	if lock {
		n.mu.Unlock()
	}
	return err
}

// DeferredBroadcast queues the broadcast behind the deferred unlock:
// defers run last-in-first-out, so it executes with the mutex still held
// (the defer blind spot).
func (n *Node) DeferredBroadcast(ms []*types.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.b.BroadcastBatch(ms) // want "AURO004"
}

// Safe releases the lock before broadcasting.
func (n *Node) Safe(ms []*types.Message) error {
	n.mu.Lock()
	n.mu.Unlock()
	_, err := n.b.BroadcastBatch(ms)
	return err
}

// relockLocked releases the caller's lock around the broadcast and takes
// it back before returning: the hand-over-hand idiom. Nothing blocking
// runs with the lock held, so neither this function nor its callers are
// flagged.
func (n *Node) relockLocked(ms []*types.Message) error {
	n.mu.Unlock()
	_, err := n.b.BroadcastBatch(ms)
	n.mu.Lock()
	return err
}

// Gate calls the hand-over-hand helper under its lock: the helper's
// summary shows no acquisition or blocking while its entry lock is held,
// so the call stays clean.
func (n *Node) Gate(ms []*types.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.relockLocked(ms)
}
