// Package disk simulates the Auragen disk subsystem (§7.1): all
// peripherals are dual-ported and connected to two clusters, and disks are
// connected in pairs to facilitate mirrored files.
//
// A Disk is a block store with an allocator. Dual porting is modeled by an
// attachment set: only the two attached clusters may issue operations, which
// is how a peripheral server's backup reaches the same blocks after its
// primary's cluster fails (§7.9). Mirroring is modeled inside the Disk: two
// replicas of every block, either of which survives a single mirror
// failure.
package disk

import (
	"fmt"
	"sync"

	"auragen/internal/types"
)

// BlockID names one allocated block.
type BlockID uint64

// NoBlock is the zero, never-allocated block id.
const NoBlock BlockID = 0

// NumMirrors is the replication factor of a mirrored pair.
const NumMirrors = 2

// maxSpare bounds the spare list: enough for the blocks one sync of a large
// process frees on both mirrors, small enough that a disk whose accounts
// were all freed at once gives the rest back to the collector.
const maxSpare = 256

// Disk is a dual-ported, mirrored block store. All methods are safe for
// concurrent use.
type Disk struct {
	name      string
	blockSize int

	mu     sync.Mutex
	ports  [2]types.ClusterID
	next   BlockID
	mirror [NumMirrors]map[BlockID][]byte
	failed [NumMirrors]bool
	// spare holds the buffers of freed blocks for Write to reuse, at most
	// maxSpare of them. Every stored buffer has capacity blockSize and its
	// stored length is the length last written, and no stored slice ever
	// leaves the package (Read copies), so a buffer's previous contents are
	// unreachable once it is re-sliced for its next tenant.
	spare [][]byte

	reads, writes uint64
}

// New creates a disk attached to clusters a and b with the given block
// size.
func New(name string, blockSize int, a, b types.ClusterID) *Disk {
	d := &Disk{
		name:      name,
		blockSize: blockSize,
		ports:     [2]types.ClusterID{a, b},
		next:      1,
	}
	for i := range d.mirror {
		d.mirror[i] = make(map[BlockID][]byte)
	}
	return d
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// BlockSize returns the block size in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// AttachedTo reports whether cluster c is one of the two ports.
func (d *Disk) AttachedTo(c types.ClusterID) bool {
	return d.ports[0] == c || d.ports[1] == c
}

// checkPort validates the issuing cluster. A cluster that is not attached
// has no path to the device.
func (d *Disk) checkPort(c types.ClusterID) error {
	if !d.AttachedTo(c) {
		return fmt.Errorf("disk %s: %v not attached: %w", d.name, c, types.ErrNoCluster)
	}
	return nil
}

// FailMirror takes one mirror out of service (a tolerated single failure).
func (d *Disk) FailMirror(i int) error {
	if i < 0 || i >= NumMirrors {
		return fmt.Errorf("disk %s: no mirror %d", d.name, i)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed[i] = true
	return nil
}

// Resilver rebuilds a failed mirror block-for-block from its healthy twin
// and returns it to service — the storage half of the repair lifecycle
// (§7.1 mirrored pairs: either replica survives a single mirror failure;
// resilvering restores the ability to survive the next one).
func (d *Disk) Resilver(i int) error {
	if i < 0 || i >= NumMirrors {
		return fmt.Errorf("disk %s: no mirror %d", d.name, i)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	src := -1
	for j := range d.mirror {
		if j != i && !d.failed[j] {
			src = j
			break
		}
	}
	if src == -1 {
		return fmt.Errorf("disk %s: no healthy mirror to resilver from: %w", d.name, types.ErrTooManyFailures)
	}
	fresh := make(map[BlockID][]byte, len(d.mirror[src]))
	for id, b := range d.mirror[src] {
		c := make([]byte, len(b), d.blockSize)
		copy(c, b)
		fresh[id] = c
	}
	d.mirror[i] = fresh
	d.failed[i] = false
	return nil
}

// FailedMirrors returns the indices of mirrors currently out of service,
// ascending.
func (d *Disk) FailedMirrors() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for i := range d.failed {
		if d.failed[i] {
			out = append(out, i)
		}
	}
	return out
}

// MirrorsEqual reports whether both mirrors are in service and hold
// block-for-block identical contents — the redundancy-restored condition
// for a mirrored pair.
func (d *Disk) MirrorsEqual() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.failed {
		if d.failed[i] {
			return false
		}
	}
	a, b := d.mirror[0], d.mirror[1]
	if len(a) != len(b) {
		return false
	}
	for id, ab := range a {
		bb, ok := b[id]
		if !ok || len(ab) != len(bb) {
			return false
		}
		for j := range ab {
			if ab[j] != bb[j] {
				return false
			}
		}
	}
	return true
}

// Alloc reserves a fresh block id.
func (d *Disk) Alloc(from types.ClusterID) (BlockID, error) {
	if err := d.checkPort(from); err != nil {
		return NoBlock, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	return id, nil
}

// bufferLocked returns the n-byte buffer mirror i stores block id in from now
// on: the block's own when it has one, otherwise a spare, otherwise a new
// one. The caller holds d.mu and fills all n bytes.
func (d *Disk) bufferLocked(i int, id BlockID, n int) []byte {
	b, ok := d.mirror[i][id]
	if last := len(d.spare) - 1; !ok && last >= 0 {
		b, d.spare = d.spare[last], d.spare[:last]
	} else if !ok {
		b = make([]byte, 0, d.blockSize)
	}
	d.mirror[i][id] = b[:n]
	return b[:n]
}

// Write stores data (at most BlockSize bytes) in block id on every healthy
// mirror.
func (d *Disk) Write(from types.ClusterID, id BlockID, data []byte) error {
	if err := d.checkPort(from); err != nil {
		return err
	}
	if len(data) > d.blockSize {
		return fmt.Errorf("disk %s: write of %d bytes exceeds block size %d", d.name, len(data), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	healthy := false
	for i := range d.mirror {
		if d.failed[i] {
			continue
		}
		copy(d.bufferLocked(i, id, len(data)), data)
		healthy = true
	}
	if !healthy {
		return fmt.Errorf("disk %s: all mirrors failed: %w", d.name, types.ErrTooManyFailures)
	}
	d.writes++
	return nil
}

// Read returns the contents of block id from the first healthy mirror. The
// returned slice is a copy.
func (d *Disk) Read(from types.ClusterID, id BlockID) ([]byte, error) {
	if err := d.checkPort(from); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.mirror {
		if d.failed[i] {
			continue
		}
		b, ok := d.mirror[i][id]
		if !ok {
			return nil, fmt.Errorf("disk %s: block %d: %w", d.name, id, types.ErrNotFound)
		}
		c := make([]byte, len(b))
		copy(c, b)
		d.reads++
		return c, nil
	}
	return nil, fmt.Errorf("disk %s: all mirrors failed: %w", d.name, types.ErrTooManyFailures)
}

// Free releases block id on every healthy mirror. Freeing an unallocated
// block is a no-op.
func (d *Disk) Free(from types.ClusterID, id BlockID) error {
	if err := d.checkPort(from); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.mirror {
		if d.failed[i] {
			continue
		}
		if b, ok := d.mirror[i][id]; ok && len(d.spare) < maxSpare {
			d.spare = append(d.spare, b)
		}
		delete(d.mirror[i], id)
	}
	return nil
}

// Blocks returns the number of blocks on the first healthy mirror.
func (d *Disk) Blocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.mirror {
		if !d.failed[i] {
			return len(d.mirror[i])
		}
	}
	return 0
}

// Stats returns cumulative (reads, writes).
func (d *Disk) Stats() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}
