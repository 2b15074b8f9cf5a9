package kernel

import (
	"fmt"
	"sort"
	"strings"

	"auragen/internal/routing"
	"auragen/internal/types"
)

// DumpState renders the kernel's process, backup, and routing state for
// post-mortem debugging of tests and scenarios.
func (k *Kernel) DumpState() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s strategy=%s crashed=%v stopped=%v outgoing=%d held=%d arrival=%d\n",
		k.id, k.strategy.Name(), k.crashed, k.stopped, k.outgoing.Len(), len(k.held), k.arrival)

	var pids []int
	for pid := range k.procs {
		pids = append(pids, int(pid))
	}
	sort.Ints(pids)
	for _, pi := range pids {
		p := k.procs[types.PID(pi)]
		// The counter tail is strategy-specific: readsSinceSync/suppressTotal
		// are sync-window concepts that mislead under llft (no sync window),
		// so the strategy labels what its counters actually mean.
		fmt.Fprintf(&b, "  proc %s prog=%s epoch=%d recovered=%v signalNext=%v exited=%v %s\n",
			p.pid, p.program, p.epoch, p.recovered, p.signalNext, p.exited,
			k.strategy.ProcDebug(uint64(p.readsSinceSync), p.ticksSinceSync, uint64(p.suppressTotal), p.totalReads, p.decisionSeq, len(p.signalPlan)))
		for _, e := range k.table.OwnedBy(p.pid, routing.Primary) {
			fmt.Fprintf(&b, "    P %s\n", e)
		}
	}
	var bpids []int
	for pid := range k.backups {
		bpids = append(bpids, int(pid))
	}
	sort.Ints(bpids)
	for _, pi := range bpids {
		bp := k.backups[types.PID(pi)]
		fmt.Fprintf(&b, "  backup %s prog=%s epoch=%d synced=%v exitedPending=%v primaryCluster=%v",
			bp.pid, bp.program, bp.epoch, bp.synced, bp.exitedPending, bp.primaryCluster)
		if k.strategy.PlansSignals() {
			fmt.Fprintf(&b, " decisions=%d readsBase=%d", len(bp.decisions), bp.readsBase)
		}
		b.WriteByte('\n')
		for _, e := range k.table.OwnedBy(bp.pid, routing.Backup) {
			fmt.Fprintf(&b, "    B %s\n", e)
		}
	}
	for pid, host := range k.servers {
		fmt.Fprintf(&b, "  server %s role=%s primaryCluster=%v saved=%d\n",
			pid, host.role, host.primaryCluster, len(host.saved))
	}
	return b.String()
}
