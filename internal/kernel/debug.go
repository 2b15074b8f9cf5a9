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
	fmt.Fprintf(&b, "%s replication=%s crashed=%v stopped=%v outgoing=%d held=%d arrival=%d\n",
		k.id, k.policy.Kind, k.crashed, k.stopped, k.outgoing.Len(), len(k.held), k.arrival)

	var pids []int
	for pid := range k.procs {
		pids = append(pids, int(pid))
	}
	sort.Ints(pids)
	for _, pi := range pids {
		p := k.procs[types.PID(pi)]
		fmt.Fprintf(&b, "  proc %s prog=%s epoch=%d recovered=%v signalNext=%v exited=%v ",
			p.pid, p.program, p.epoch, p.recovered, p.signalNext, p.exited)
		// readsSinceSync is a sync-window count that misleads where no
		// capture follows establishment, so a decision log shows its own.
		if k.policy.Decisions {
			fmt.Fprintf(&b, "totalReads=%d decisions=%d plan=%d suppressTotal=%d\n",
				p.totalReads, p.decisionSeq, len(p.signalPlan), p.suppressTotal)
		} else {
			fmt.Fprintf(&b, "reads=%d ticks=%d suppressTotal=%d\n", p.readsSinceSync, p.ticksSinceSync, p.suppressTotal)
		}
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
		if k.policy.Decisions {
			fmt.Fprintf(&b, " decisions=%d readsBase=%d", len(bp.decisions), bp.readsBase)
		}
		b.WriteByte('\n')
		for _, e := range k.table.OwnedBy(bp.pid, routing.Backup) {
			fmt.Fprintf(&b, "    B %s\n", e)
		}
	}
	for pid, host := range k.servers {
		fmt.Fprintf(&b, "  server %s role=%s primaryCluster=%v twinAcksDue=%d\n",
			pid, host.role, host.primaryCluster, len(k.twinAcks[pid]))
		for _, e := range k.table.OwnedBy(pid, host.role) {
			fmt.Fprintf(&b, "    %c %s\n", "PB"[host.role], e)
		}
	}
	return b.String()
}
