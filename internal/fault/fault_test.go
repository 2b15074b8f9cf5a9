package fault

import (
	"sync"
	"testing"

	"auragen/internal/types"
)

// harness wraps a detector over a mutable liveness map. Tests drive probe
// rounds deterministically via Poll — no real-time sleeps.
type harness struct {
	mu      sync.Mutex
	alive   map[types.ClusterID]bool
	crashes []types.ClusterID
	probes  int
	d       *Detector
}

func newHarness(cfg Config) *harness {
	h := &harness{alive: make(map[types.ClusterID]bool)}
	cfg.Probe = func(c types.ClusterID) bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.probes++
		return h.alive[c]
	}
	cfg.OnCrash = func(c types.ClusterID) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.crashes = append(h.crashes, c)
	}
	h.d = New(cfg)
	return h
}

func (h *harness) setAlive(c types.ClusterID, v bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.alive[c] = v
}

func (h *harness) crashCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.crashes)
}

func TestReportFiresOnce(t *testing.T) {
	h := newHarness(Config{})
	h.d.Watch(2)
	h.setAlive(2, true)
	if !h.d.Report(2) {
		t.Fatal("first report rejected")
	}
	if h.d.Report(2) {
		t.Fatal("second report accepted")
	}
	if h.crashCount() != 1 {
		t.Fatalf("crashes = %d", h.crashCount())
	}
}

func TestReportUnknownCluster(t *testing.T) {
	h := newHarness(Config{})
	if h.d.Report(9) {
		t.Fatal("report for unwatched cluster accepted")
	}
}

func TestPollDetectsDeathAfterDebounce(t *testing.T) {
	h := newHarness(Config{})
	for c := types.ClusterID(0); c < 3; c++ {
		h.setAlive(c, true)
		h.d.Watch(c)
	}
	h.setAlive(1, false)
	for i := 1; i < DefaultDebounce; i++ {
		h.d.Poll()
	}
	if h.crashCount() != 0 {
		t.Fatal("fewer than DefaultDebounce missed probes declared a crash")
	}
	h.d.Poll()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.crashes) != 1 || h.crashes[0] != 1 {
		t.Fatalf("crashes = %v", h.crashes)
	}
}

func TestSuccessfulProbeResetsDebounce(t *testing.T) {
	// A false positive — fewer than DefaultDebounce consecutive misses —
	// must not declare a crash, no matter how many non-consecutive misses
	// accrue.
	h := newHarness(Config{})
	h.setAlive(0, true)
	h.d.Watch(0)
	for round := 0; round < 5; round++ {
		h.setAlive(0, false)
		for i := 1; i < DefaultDebounce; i++ {
			h.d.Poll() // one short of the debounce
		}
		h.setAlive(0, true)
		h.d.Poll() // recovery resets the count
	}
	if h.crashCount() != 0 {
		t.Fatalf("transient probe failures declared a crash: %d", h.crashCount())
	}
	h.setAlive(0, false)
	for i := 0; i < DefaultDebounce; i++ {
		h.d.Poll()
	}
	if h.crashCount() != 1 {
		t.Fatalf("real death not declared after %d misses", DefaultDebounce)
	}
}

// TestPollReportsEachFailureOnce: a declared cluster is neither probed nor
// declared again, whether the detector found it or a Report did.
func TestPollReportsEachFailureOnce(t *testing.T) {
	h := newHarness(Config{})
	h.d.Watch(0)
	h.d.Watch(1)
	h.setAlive(1, true)
	for i := 0; i < 5; i++ {
		h.d.Poll()
	}
	if h.crashCount() != 1 {
		t.Fatalf("repeated reports: %d", h.crashCount())
	}
	if h.d.Report(1); h.crashCount() != 2 {
		t.Fatalf("report of a live cluster not declared: %d", h.crashCount())
	}
	probes := h.probes
	h.d.Poll()
	if h.d.Report(0) || h.d.Report(1) || h.crashCount() != 2 || h.probes != probes {
		t.Fatalf("declared clusters probed %d times or declared again: %d crashes", h.probes-probes, h.crashCount())
	}
}

// TestJitterOnlyDelaysDeclaration: the jitter's debounce extension never
// declares a dead cluster before DefaultDebounce misses and always by
// DefaultDebounce+1, whatever the seed.
func TestJitterOnlyDelaysDeclaration(t *testing.T) {
	seen := make(map[int]bool)
	for seed := uint64(1); seed <= 200; seed++ {
		h := newHarness(Config{Jitter: types.NewRNG(seed)})
		h.d.Watch(0)
		misses := 0
		for h.crashCount() == 0 && misses <= DefaultDebounce+1 {
			h.d.Poll()
			misses++
		}
		if misses < DefaultDebounce || misses > DefaultDebounce+1 || h.crashCount() != 1 {
			t.Fatalf("seed %d: declared after %d misses (%d crashes), want %d or %d",
				seed, misses, h.crashCount(), DefaultDebounce, DefaultDebounce+1)
		}
		seen[misses] = true
	}
	if len(seen) != 2 {
		t.Fatalf("200 seeds never varied the debounce: %v", seen)
	}
}
