// Package memory models the paged address space of a user process.
//
// The paper's sync operation sends "all pages which have been modified
// since last sync" to the page server (§7.8); the page server keeps one
// account for the primary and one for its backup (§7.6). This package
// supplies the process-side half: a sparse paged memory with per-page dirty
// tracking (the software analogue of MMU dirty bits) plus a deterministic
// page-backed key/value heap that guest programs use for all mutable state,
// so that "the changes in the address space of the primary" is a
// well-defined, replayable quantity.
package memory

import (
	"fmt"
	"sort"
	"sync"
)

// PageNo indexes a page within one address space.
type PageNo uint32

// DefaultPageSize is the page size used when NewAddressSpace is given a
// non-positive size. Auragen's M68000s paged at 1–4 KiB; the exact value
// only scales the experiments.
const DefaultPageSize = 1024

// Page is one page's contents. Pages handed out by Snapshot methods are
// copies and safe to retain.
type Page struct {
	No   PageNo
	Data []byte
}

// AddressSpace is a sparse paged memory with dirty tracking. It is safe for
// concurrent use, though a correctly written guest is single-threaded (the
// determinism requirement of §4).
type AddressSpace struct {
	pageSize int

	mu    sync.Mutex
	pages map[PageNo][]byte
	dirty map[PageNo]struct{}
	// frozen marks pages whose backing slices are aliased by an outstanding
	// CaptureDirty: a write copies the page first (copy-on-write), so the
	// captured slices stay immutable until the sync has been encoded and
	// Release ends the capture.
	frozen map[PageNo]struct{}
	// ever counts pages ever touched; used for accounting.
	high PageNo
}

// NewAddressSpace returns an empty address space with the given page size
// (DefaultPageSize if pageSize <= 0).
func NewAddressSpace(pageSize int) *AddressSpace {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &AddressSpace{
		pageSize: pageSize,
		pages:    make(map[PageNo][]byte),
		dirty:    make(map[PageNo]struct{}),
		frozen:   make(map[PageNo]struct{}),
	}
}

// PageSize returns the page size in bytes.
func (a *AddressSpace) PageSize() int { return a.pageSize }

// PageCount returns the number of resident pages.
func (a *AddressSpace) PageCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pages)
}

// HighWater returns one past the highest page number ever written.
func (a *AddressSpace) HighWater() PageNo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.high
}

// page returns the backing slice for page n, allocating a zero page if
// absent. Caller holds a.mu.
func (a *AddressSpace) page(n PageNo) []byte {
	p, ok := a.pages[n]
	if !ok {
		p = make([]byte, a.pageSize)
		a.pages[n] = p
		if n+1 > a.high {
			a.high = n + 1
		}
	}
	return p
}

// ReadAt copies len(buf) bytes starting at offset off into buf. Reads of
// never-written memory observe zeroes, as with demand-zero pages.
func (a *AddressSpace) ReadAt(off int64, buf []byte) {
	if off < 0 {
		panic(fmt.Sprintf("memory: negative offset %d", off))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(buf) > 0 {
		n := PageNo(off / int64(a.pageSize))
		po := int(off % int64(a.pageSize))
		p, ok := a.pages[n]
		span := a.pageSize - po
		if span > len(buf) {
			span = len(buf)
		}
		if ok {
			copy(buf[:span], p[po:po+span])
		} else {
			for i := 0; i < span; i++ {
				buf[i] = 0
			}
		}
		buf = buf[span:]
		off += int64(span)
	}
}

// WriteAt copies data into the address space starting at offset off. A page
// is marked dirty only if its contents actually change, mirroring an MMU
// dirty bit: rewriting identical bytes costs nothing at sync.
func (a *AddressSpace) WriteAt(off int64, data []byte) {
	if off < 0 {
		panic(fmt.Sprintf("memory: negative offset %d", off))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(data) > 0 {
		n := PageNo(off / int64(a.pageSize))
		po := int(off % int64(a.pageSize))
		span := a.pageSize - po
		if span > len(data) {
			span = len(data)
		}
		_, resident := a.pages[n]
		changed := false
		if !resident {
			// Writing zeroes to a non-resident page is a no-op.
			for _, b := range data[:span] {
				if b != 0 {
					changed = true
					break
				}
			}
			if !changed {
				data = data[span:]
				off += int64(span)
				continue
			}
		}
		p := a.page(n)
		if resident {
			for i := 0; i < span; i++ {
				if p[po+i] != data[i] {
					changed = true
					break
				}
			}
		}
		if changed {
			p = a.thawLocked(n, p)
			copy(p[po:po+span], data[:span])
			a.dirty[n] = struct{}{}
		}
		data = data[span:]
		off += int64(span)
	}
}

// thawLocked gives page n a private backing slice if it is frozen by an
// outstanding CaptureDirty, returning the writable slice. Caller holds
// a.mu and must use the returned slice for the write.
func (a *AddressSpace) thawLocked(n PageNo, p []byte) []byte {
	if _, ok := a.frozen[n]; !ok {
		return p
	}
	clone := make([]byte, a.pageSize)
	copy(clone, p)
	a.pages[n] = clone
	delete(a.frozen, n)
	return clone
}

// CaptureDirty returns the dirty pages in ascending page order WITHOUT
// copying them — the returned Page.Data slices alias the address space —
// and clears the dirty set. The aliased pages are frozen: the next write to
// any of them copies the page first (copy-on-write), so the returned slices
// are immutable from the caller's point of view and may be read from
// another goroutine (whichever one transmits the sync and encodes it)
// without synchronization. The primary keeps executing; only pages it actually
// rewrites while the capture is in flight pay a copy. The capture is in
// flight until its holder is done reading the slices and calls Release.
func (a *AddressSpace) CaptureDirty() []Page {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.dirty) == 0 {
		return nil
	}
	nos := make([]PageNo, 0, len(a.dirty))
	for n := range a.dirty {
		nos = append(nos, n)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	out := make([]Page, 0, len(nos))
	for _, n := range nos {
		a.frozen[n] = struct{}{}
		out = append(out, Page{No: n, Data: a.pages[n]})
	}
	a.dirty = make(map[PageNo]struct{})
	return out
}

// Release ends a capture: the caller has finished reading the slices
// CaptureDirty returned and will not look at them again, so each page that
// still lives in the slice captured is unfrozen and its next write happens in
// place. A page written since then already owns a private clone; if a later
// capture froze that clone it stays frozen, because that capture's holder is
// still reading it. A capture that is never released (its page-out died with
// the cluster) costs one clone per page at the next write, nothing else.
func (a *AddressSpace) Release(pages []Page) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, pg := range pages {
		if p := a.pages[pg.No]; len(p) > 0 && len(pg.Data) > 0 && &p[0] == &pg.Data[0] {
			delete(a.frozen, pg.No)
		}
	}
}

// FrozenCount returns the number of pages currently frozen by an
// outstanding CaptureDirty (tests).
func (a *AddressSpace) FrozenCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.frozen)
}

// DirtyCount returns the number of pages currently marked dirty.
func (a *AddressSpace) DirtyCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.dirty)
}

// SnapshotAll returns copies of every resident page in ascending order,
// regardless of dirtiness. The explicit-checkpointing baseline (§2) copies
// this entire set at every checkpoint.
func (a *AddressSpace) SnapshotAll() []Page {
	a.mu.Lock()
	defer a.mu.Unlock()
	nos := make([]PageNo, 0, len(a.pages))
	for n := range a.pages {
		nos = append(nos, n)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	out := make([]Page, 0, len(nos))
	for _, n := range nos {
		d := make([]byte, a.pageSize)
		copy(d, a.pages[n])
		out = append(out, Page{No: n, Data: d})
	}
	return out
}

// Install writes the given pages into the address space without marking
// them dirty. Recovery uses it to restore the backup page account; the
// restored state is by definition already at the page server.
func (a *AddressSpace) Install(pages []Page) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, pg := range pages {
		if len(pg.Data) != a.pageSize {
			panic(fmt.Sprintf("memory: installing page of %d bytes into %d-byte space", len(pg.Data), a.pageSize))
		}
		d := make([]byte, a.pageSize)
		copy(d, pg.Data)
		a.pages[pg.No] = d
		delete(a.frozen, pg.No) // the fresh copy is private
		if pg.No+1 > a.high {
			a.high = pg.No + 1
		}
	}
}

// ClearDirty drops dirty marks without copying. Used when a snapshot has
// been taken by other means.
func (a *AddressSpace) ClearDirty() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dirty = make(map[PageNo]struct{})
}

// Reset discards every page, returning the space to its initial state.
func (a *AddressSpace) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pages = make(map[PageNo][]byte)
	a.dirty = make(map[PageNo]struct{})
	a.frozen = make(map[PageNo]struct{})
	a.high = 0
}

// Equal reports whether two address spaces have identical contents
// (resident zero pages compare equal to absent pages). Test helper.
func Equal(a, b *AddressSpace) bool {
	if a.pageSize != b.pageSize {
		return false
	}
	// Deep-copy a's pages under its lock, then compare under b's. Holding
	// both AddressSpace mutexes at once would need a global acquisition
	// order no caller can provide: Equal(x, y) racing Equal(y, x) could
	// deadlock (aurolint AURO010).
	a.mu.Lock()
	apages := make(map[PageNo][]byte, len(a.pages))
	for n, p := range a.pages {
		apages[n] = append([]byte(nil), p...)
	}
	a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[PageNo]struct{})
	for n := range apages {
		seen[n] = struct{}{}
	}
	for n := range b.pages {
		seen[n] = struct{}{}
	}
	zero := make([]byte, a.pageSize)
	get := func(pages map[PageNo][]byte, n PageNo) []byte {
		if p, ok := pages[n]; ok {
			return p
		}
		return zero
	}
	for n := range seen {
		pa, pb := get(apages, n), get(b.pages, n)
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
	}
	return true
}
