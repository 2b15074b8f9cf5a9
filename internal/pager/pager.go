// Package pager implements the global page server of §7.6: it keeps one
// page account for each primary process and another for its backup. The
// backup's account always contains the modified pages in their state as of
// the last synchronization; the sync message commits the primary's account
// onto the backup's, after which "only one copy of each page will exist" —
// accounts share blocks until the primary modifies a page again.
//
// Deployment note (see DESIGN.md substitutions): the paper's page server is
// a memory-locked peripheral server whose data lives on dual-ported disk.
// Here each of the two page-server clusters runs one Server instance over
// its own mirror of the disk pair. Both instances consume the identical,
// totally ordered stream of page-outs, sync commits, and frees from the
// bus, so they are deterministic replicas; when either cluster fails, the
// survivor is already current, which is what lets recovery begin
// immediately (§7.10.2: "Page servers and file servers must be available to
// supply pages demanded by user processes' backups").
package pager

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"auragen/internal/disk"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// account maps page numbers to disk blocks.
type account map[memory.PageNo]disk.BlockID

// Server is one page-server instance. It implements kernel.PagerSink.
type Server struct {
	cluster types.ClusterID
	disk    *disk.Disk
	log     *trace.EventLog

	mu      sync.Mutex
	primary map[types.PID]account
	backup  map[types.PID]account
	// epoch tracks the last committed epoch per pid.
	epoch map[types.PID]types.Epoch
	// primaryCluster records where each pid's primary last paged out
	// from, so a crash rolls back exactly the accounts of lost primaries.
	primaryCluster map[types.PID]types.ClusterID
	// refs counts how many account slots reference each block, so blocks
	// shared by primary and backup accounts are freed exactly once.
	refs map[disk.BlockID]int
	// touched lists, per pid, the pages HandlePageOut has put in the
	// primary account since a commit or a rollback last made the two
	// accounts equal (a page paged out twice is listed twice). On every
	// other page the accounts already share a block, so commit and
	// rollback move these pages only.
	touched map[types.PID][]memory.PageNo
}

var _ kernel.PagerSink = (*Server)(nil)

// New creates a page-server instance for the given cluster over its disk
// mirror.
func New(cluster types.ClusterID, d *disk.Disk) *Server {
	return &Server{
		cluster:        cluster,
		disk:           d,
		primary:        make(map[types.PID]account),
		backup:         make(map[types.PID]account),
		epoch:          make(map[types.PID]types.Epoch),
		primaryCluster: make(map[types.PID]types.ClusterID),
		refs:           make(map[disk.BlockID]int),
		touched:        make(map[types.PID][]memory.PageNo),
	}
}

// SetEventLog attaches the shared event log (nil disables recording).
func (s *Server) SetEventLog(l *trace.EventLog) { s.log = l }

func (s *Server) incRef(b disk.BlockID) { s.refs[b]++ }

func (s *Server) decRef(b disk.BlockID) {
	s.refs[b]--
	if s.refs[b] <= 0 {
		delete(s.refs, b)
		_ = s.disk.Free(s.cluster, b)
	}
}

// HandlePageOut adds the modified pages of one sync to the primary's
// account ("The page server sees no difference between these pages and any
// other it receives. It simply adds them to the primary's page account",
// §7.8). The whole set is applied under one lock acquisition: the account
// moves atomically from its pre-sync to its post-sync page set.
func (s *Server) HandlePageOut(po *kernel.PageOut) {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct := s.primary[po.PID]
	if acct == nil {
		acct = make(account)
		s.primary[po.PID] = acct
	}
	// Recorded first, so that a set cut short below is still rolled back
	// with its primary's cluster.
	s.primaryCluster[po.PID] = po.From
	for i := range po.Pages {
		pg := &po.Pages[i]
		id, err := s.disk.Alloc(s.cluster)
		if err == nil {
			err = s.disk.Write(s.cluster, id, pg.Data)
		}
		if err != nil {
			_ = s.disk.Free(s.cluster, id) // fails only where Alloc did, with nothing to free
			s.log.Add(trace.EvNote, fmt.Sprintf("%s: pager: page-out of pid %d cut short at page %d: %v", s.cluster, po.PID, pg.No, err))
			return
		}
		if old, ok := acct[pg.No]; ok {
			s.decRef(old)
		}
		acct[pg.No] = id
		s.incRef(id)
		s.touched[po.PID] = append(s.touched[po.PID], pg.No)
	}
}

// HandleSyncCommit makes the backup's account identical to the primary's
// (§7.8). Blocks become shared; two copies are kept only of pages modified
// after this commit. The cost is that of the pages paged out since the last
// commit, not of the account.
func (s *Server) HandleSyncCommit(pid types.PID, epoch types.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prim, back := s.primary[pid], s.backup[pid]
	if back == nil {
		back = make(account)
		s.backup[pid] = back
	}
	for _, no := range s.touched[pid] {
		b := prim[no]
		old, had := back[no]
		back[no] = b
		s.incRef(b)
		if had {
			s.decRef(old) // b itself if the page is listed twice
		}
	}
	s.touched[pid] = s.touched[pid][:0]
	s.epoch[pid] = epoch
}

// HandleCrash rolls every process that ran on the crashed cluster back to
// its committed state: page-outs after the last sync commit are discarded
// (the sync message that would have committed them never escaped the
// crashed cluster, or arrived and committed them already — §7.8's
// atomicity argument).
func (s *Server) HandleCrash(crashed types.ClusterID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid, where := range s.primaryCluster {
		if where == crashed {
			s.rollbackLocked(pid)
		}
	}
}

// HandleCrashPID rolls one process's primary account back to its committed
// backup account (a single-process failure, §10).
func (s *Server) HandleCrashPID(pid types.PID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollbackLocked(pid)
}

// rollbackLocked makes pid's primary account identical to its backup
// account again, dropping the pages paged out since the last commit.
func (s *Server) rollbackLocked(pid types.PID) {
	prim, back := s.primary[pid], s.backup[pid]
	for _, no := range s.touched[pid] {
		cur, ok := prim[no]
		b, had := back[no]
		if !ok || had && b == cur {
			continue // listed twice, already rolled back
		}
		if had {
			prim[no] = b
			s.incRef(b)
		} else {
			delete(prim, no)
		}
		s.decRef(cur)
	}
	delete(s.touched, pid)
	delete(s.primaryCluster, pid)
}

// HandleFree releases both accounts of the given pids (exited processes).
func (s *Server) HandleFree(pids []types.PID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pid := range pids {
		for _, b := range s.primary[pid] {
			s.decRef(b)
		}
		for _, b := range s.backup[pid] {
			s.decRef(b)
		}
		delete(s.primary, pid)
		delete(s.backup, pid)
		delete(s.epoch, pid)
		delete(s.primaryCluster, pid)
		delete(s.touched, pid)
	}
}

// HandlePageRequest returns the backup account's pages in ascending page
// order — the address space as of the last synchronization (§6).
func (s *Server) HandlePageRequest(pid types.PID) []memory.Page {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct := s.backup[pid]
	nos := make([]memory.PageNo, 0, len(acct))
	for no := range acct {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	out := make([]memory.Page, 0, len(nos))
	for _, no := range nos {
		data, err := s.disk.Read(s.cluster, acct[no])
		if err != nil {
			continue
		}
		out = append(out, memory.Page{No: no, Data: data})
	}
	if s.log != nil {
		s.log.Append(trace.Event{
			Kind:    trace.EvPageFetch,
			Cluster: s.cluster,
			PID:     pid,
			Arg:     uint64(len(out)),
		})
	}
	return out
}

// CloneFrom rebuilds this instance's tables and disk mirror from a healthy
// peer — the resilver step when a pager cluster returns to service after a
// failure. The copy is consistent only if nothing is applied to src while it
// runs: core.Repair calls it from src's kernel, at its dispatch of a mark.
func (s *Server) CloneFrom(src *Server) error {
	src.mu.Lock()
	prim, back := cloneAccounts(src.primary), cloneAccounts(src.backup)
	data := make(map[disk.BlockID][]byte)
	var err error
	for _, tbl := range [2]map[types.PID]account{prim, back} {
		for _, acct := range tbl {
			for _, b := range acct {
				if _, done := data[b]; !done && err == nil {
					data[b], err = src.disk.Read(src.cluster, b)
				}
			}
		}
	}
	epochs, primClusters := maps.Clone(src.epoch), maps.Clone(src.primaryCluster)
	touched := make(map[types.PID][]memory.PageNo, len(src.touched))
	for pid, nos := range src.touched {
		touched[pid] = slices.Clone(nos)
	}
	src.mu.Unlock()
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.primary, s.backup = prim, back
	s.refs = make(map[disk.BlockID]int)
	s.epoch, s.primaryCluster, s.touched = epochs, primClusters, touched
	// Blocks shared between accounts at the source stay shared here: each
	// source block is written once, and the copied accounts are pointed at
	// the new blocks in place.
	placed := make(map[disk.BlockID]disk.BlockID, len(data))
	for _, tbl := range [2]map[types.PID]account{prim, back} {
		for _, acct := range tbl {
			for no, b := range acct {
				id, ok := placed[b]
				if !ok {
					if id, err = s.disk.Alloc(s.cluster); err == nil {
						err = s.disk.Write(s.cluster, id, data[b])
					}
					if err != nil {
						return err
					}
					placed[b] = id
				}
				acct[no] = id
				s.incRef(id)
			}
		}
	}
	return nil
}

// cloneAccounts copies an account table, accounts included.
func cloneAccounts(tbl map[types.PID]account) map[types.PID]account {
	out := make(map[types.PID]account, len(tbl))
	for pid, acct := range tbl {
		out[pid] = maps.Clone(acct)
	}
	return out
}

// Disk returns the instance's disk mirror (for repair tooling and the
// redundancy oracle).
func (s *Server) Disk() *disk.Disk { return s.disk }

// Fingerprint hashes the instance's logical content — every (pid, account,
// page number, page bytes) tuple plus the per-pid epochs and primary
// clusters — in a canonical order. Two replicas that consumed the same
// ordered stream hash identically even though their physical block ids
// differ (CloneFrom reallocates), so fingerprint equality is the
// "both pager replicas current" condition of the redundancy oracle.
func (s *Server) Fingerprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	// The pid set is every pid any table knows, and an empty account hashes
	// like an absent one, so a pid that has synced but never paged out still
	// contributes its epoch on both the source and its clone.
	seen := make(map[types.PID]bool)
	for pid := range s.primary {
		seen[pid] = true
	}
	for pid := range s.backup {
		seen[pid] = true
	}
	for pid := range s.epoch {
		seen[pid] = true
	}
	for pid := range s.primaryCluster {
		seen[pid] = true
	}
	pids := make([]types.PID, 0, len(seen))
	for pid := range seen {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	hashAcct := func(tag byte, pid types.PID, acct account) {
		nos := make([]memory.PageNo, 0, len(acct))
		for no := range acct {
			nos = append(nos, no)
		}
		sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
		for _, no := range nos {
			mix(tag)
			mix64(uint64(pid))
			mix64(uint64(no))
			data, err := s.disk.Read(s.cluster, acct[no])
			if err != nil {
				mix(0xFF) // unreadable block: poison the hash
				continue
			}
			mix64(uint64(len(data)))
			for _, b := range data {
				mix(b)
			}
		}
	}
	for _, pid := range pids {
		hashAcct('P', pid, s.primary[pid])
		hashAcct('B', pid, s.backup[pid])
		mix64(uint64(s.epoch[pid]))
		if c, ok := s.primaryCluster[pid]; ok {
			mix64(uint64(c) + 1)
		}
	}
	return h
}

// Epoch returns the last committed epoch for pid.
func (s *Server) Epoch(pid types.PID) types.Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch[pid]
}

// AccountSizes returns (primary, backup) page counts for pid.
func (s *Server) AccountSizes(pid types.PID) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.primary[pid]), len(s.backup[pid])
}

// SharedBlocks returns how many blocks pid's two accounts share — after a
// sync with no further modification this equals the account size ("After a
// sync, only one copy of each page will exist").
func (s *Server) SharedBlocks(pid types.PID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for no, b := range s.primary[pid] {
		if s.backup[pid][no] == b {
			n++
		}
	}
	return n
}
