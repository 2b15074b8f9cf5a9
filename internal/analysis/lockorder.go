package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// AURO010 — global lock-acquisition-order graph.
//
// The lockset dataflow in locking.go reports every acquisition made while
// another lock is held as a directed edge held-class → acquired-class.
// Collected over the whole program, those edges form the acquisition-order
// graph; a cycle in it means two interleavings can acquire the same pair of
// classes in opposite orders — the classic deadlock shape the paper's
// roll-forward protocol cannot tolerate in its send path.
//
// Same-class nesting (two instances of one class held at once) is a
// self-edge and is reported immediately unless the acquiring function is
// listed in Config.OrderedLockClasses for that class: that list encodes the
// sanctioned multi-instance disciplines — bus.BroadcastBatch locking the
// inboxes a batch reaches, under the bus lock — turning DESIGN.md §9.1's
// comment into a checked rule. Any other function nesting the class is a finding.

// lockEdge is one ordering constraint: from is held while to is acquired.
type lockEdge struct {
	from, to string
}

// edgeSite remembers where an edge was first observed, for reporting.
type edgeSite struct {
	pkg *Package
	pos token.Pos
	fn  string
}

type lockOrder struct {
	conf         *Config
	edges        map[lockEdge]edgeSite
	reportedSelf map[token.Pos]bool
}

func newLockOrder(conf *Config) *lockOrder {
	return &lockOrder{
		conf:         conf,
		edges:        make(map[lockEdge]edgeSite),
		reportedSelf: make(map[token.Pos]bool),
	}
}

// addEdge records that class to is acquired at pos (inside n) while class
// from is held. Self-edges are checked against the sanctioned ordered-class
// list immediately; cross-class edges accumulate for cycle detection.
func (lo *lockOrder) addEdge(pp *progPass, n *funcNode, pos token.Pos, from, to string) {
	if from == to {
		if containsString(lo.conf.OrderedLockClasses[to], funcKey(n.fn)) {
			return
		}
		if lo.reportedSelf[pos] {
			return
		}
		lo.reportedSelf[pos] = true
		pp.reportf(n.pkg, pos, "AURO010",
			"second instance of lock class %s acquired while one is already held; only %s may hold multiple instances (uniform acquisition order)",
			to, sanctionedList(lo.conf.OrderedLockClasses[to]))
		return
	}
	e := lockEdge{from: from, to: to}
	if _, ok := lo.edges[e]; !ok {
		lo.edges[e] = edgeSite{pkg: n.pkg, pos: pos, fn: funcKey(n.fn)}
	}
}

func sanctionedList(fns []string) string {
	if len(fns) == 0 {
		return "no function"
	}
	return strings.Join(fns, ", ")
}

// reportCycles finds strongly connected components of the cross-class
// acquisition-order graph and reports one finding per cycle.
func (lo *lockOrder) reportCycles(pp *progPass) {
	// Deterministic node and adjacency order.
	adj := make(map[string][]string)
	nodeSet := make(map[string]bool)
	for e := range lo.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodeSet[e.from] = true
		nodeSet[e.to] = true
	}
	var nodes []string
	for c := range nodeSet {
		nodes = append(nodes, c)
	}
	sort.Strings(nodes)
	for c := range adj {
		sort.Strings(adj[c])
	}

	// Tarjan's SCC algorithm.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		// Anchor the finding at the smallest in-cycle edge for stable output.
		var site edgeSite
		var anchor lockEdge
		found := false
		in := make(map[string]bool, len(scc))
		for _, c := range scc {
			in[c] = true
		}
		for _, from := range scc {
			for _, to := range adj[from] {
				if !in[to] {
					continue
				}
				e := lockEdge{from: from, to: to}
				if !found || e.from < anchor.from || (e.from == anchor.from && e.to < anchor.to) {
					anchor = e
					site = lo.edges[e]
					found = true
				}
			}
		}
		if !found {
			continue
		}
		pp.reportf(site.pkg, site.pos, "AURO010",
			"lock-order cycle among classes %s: %s is acquired here while %s is held, and another path acquires them in the opposite order (in %s)",
			fmt.Sprintf("{%s}", strings.Join(scc, ", ")), anchor.to, anchor.from, site.fn)
	}
}
