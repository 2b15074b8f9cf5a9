// Package fault implements failure detection (§7.10): "Local failure
// detection and diagnosis are done in each cluster ... Periodic polling of
// every cluster will discover the shutdown and notify the remaining
// clusters to begin crash handling."
//
// The Detector probes cluster liveness and reports each alive→dead
// transition exactly once. It has one driver: each Poll is one probe
// round, run by whoever decides that a round is due (core's facade, the
// fault-injection campaigns), so no goroutine or clock of its own is
// involved. A cluster is declared dead only after DefaultDebounce
// consecutive missed probes, so a single dropped probe (a detector false
// positive) does not trigger spurious crash handling. Crash injection
// calls the same report path synchronously (Report).
package fault

import (
	"sort"
	"sync"

	"auragen/internal/types"
)

// DefaultDebounce is the number of consecutive missed probes required
// before a cluster is declared crashed.
const DefaultDebounce = 2

// Config assembles a detector.
type Config struct {
	// Probe reports whether a cluster currently responds.
	Probe func(types.ClusterID) bool
	// OnCrash is invoked exactly once per detected failure.
	OnCrash func(types.ClusterID)
	// Jitter, when non-nil, perturbs the debounce reproducibly (the
	// schedule perturber's detector hook): each miss streak may need one
	// extra missed probe beyond DefaultDebounce before the cluster is
	// declared dead. Jitter only ever *delays* a declaration, so a
	// tolerated false positive can never be promoted into spurious crash
	// handling. The RNG is drawn only under the detector's lock; split a
	// parent RNG per detector (see core.Options.ScheduleSeed).
	Jitter *types.RNG
}

// watchState tracks one cluster's liveness belief.
type watchState struct {
	alive  bool
	missed int // consecutive failed probes
	// extra is this miss streak's jittered debounce extension (0 or 1),
	// drawn at the streak's first miss.
	extra int
}

// Detector polls cluster liveness.
type Detector struct {
	probe   func(types.ClusterID) bool
	onCrash func(types.ClusterID)
	jitter  *types.RNG

	mu    sync.Mutex
	known map[types.ClusterID]*watchState
}

// New creates a detector from cfg. Probe and OnCrash must be non-nil.
func New(cfg Config) *Detector {
	return &Detector{
		probe:   cfg.Probe,
		onCrash: cfg.OnCrash,
		jitter:  cfg.Jitter,
		known:   make(map[types.ClusterID]*watchState),
	}
}

// Watch adds a cluster to the polling set, believed alive.
func (d *Detector) Watch(c types.ClusterID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.known[c] = &watchState{alive: true}
}

// Poll runs one probe round: every watched-alive cluster is probed once; a
// cluster missing DefaultDebounce consecutive probes (plus its jitter
// extension) is declared crashed (OnCrash fires once, after the detector's
// lock is released, in ascending cluster order). A successful probe resets
// the miss count. A declared cluster is not probed again until it is
// re-watched.
func (d *Detector) Poll() {
	d.mu.Lock()
	var dead []types.ClusterID
	for c, w := range d.known {
		if !w.alive {
			continue
		}
		if d.probe(c) {
			w.missed = 0
			continue
		}
		w.missed++
		if w.missed == 1 && d.jitter != nil {
			w.extra = d.jitter.Intn(2)
		}
		if w.missed >= DefaultDebounce+w.extra {
			w.alive = false
			dead = append(dead, c)
		}
	}
	d.mu.Unlock()
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, c := range dead {
		d.onCrash(c)
	}
}

// Report declares a cluster failed immediately, bypassing the debounce
// (synchronous injection: the caller knows the cluster is gone). It is
// idempotent: the first report wins.
func (d *Detector) Report(c types.ClusterID) bool {
	d.mu.Lock()
	w, ok := d.known[c]
	fire := ok && w.alive
	if fire {
		w.alive = false
	}
	d.mu.Unlock()
	if fire {
		d.onCrash(c)
		return true
	}
	return false
}
