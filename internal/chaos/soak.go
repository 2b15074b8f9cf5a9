// Long-soak campaign: one system, fault→repair→fault for K cycles, with
// a per-cycle fingerprint (settled goroutine count, redundancy gaps,
// suppression and inbox-peak budgets) and a drift oracle that rejects
// any fingerprint series that keeps growing after warmup. A system that
// survives each repair but leaks a goroutine, widens its inbox
// watermark, or burns suppression budget per cycle will pass every
// single-fault campaign and still die in production; the soak is the
// test that catches exactly that.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"auragen/internal/chaos/leakcheck"
	"auragen/internal/core"
	"auragen/internal/types"
)

// Soak defaults. Warmup cycles establish the baseline the later cycles
// are held to: the first crash/repair of each cluster builds caches and
// pools (event-log ring, transmit writers, re-established backups), so
// the steady state is reached a couple of cycles in, not at boot.
const (
	DefaultSoakCycles = 25
	DefaultSoakWarmup = 3
	// soakGoroutineSlack is the tolerated wobble above the warmup
	// goroutine high-water mark: repairs re-create kernel goroutine
	// pairs, and the instant of sampling can catch a detector tick or a
	// runtime helper.
	soakGoroutineSlack = 6
	// soakStableTimeout bounds each cycle's wait for the goroutine count
	// to steady before fingerprinting.
	soakStableTimeout = 5 * time.Second
)

// SoakConfig configures a soak campaign.
type SoakConfig struct {
	// Scenario supplies the long-lived workload; Round(i) is driven once
	// per cycle with the cycle index.
	Scenario SeqScenario
	// Cycles is the number of fault→repair→fault cycles (default
	// DefaultSoakCycles).
	Cycles int
	// Seed feeds the logical clock and the per-cycle coordinate draws.
	Seed int64
	// JitterSeed, when non-zero, runs the whole soak under the seeded
	// schedule perturber.
	JitterSeed uint64
	// Targets is the crash rotation (default: every cluster of the
	// scenario except 0 and 1 first, then 0 and 1 — i.e. round-robin
	// over all clusters starting at 2, so the server pair is exercised
	// too but never first).
	Targets []types.ClusterID
	// Warmup is how many leading cycles only establish the baseline
	// (default DefaultSoakWarmup; clamped below Cycles).
	Warmup int
	// Timeout is the whole-campaign watchdog (default: the sequential
	// campaign's per-step default times Cycles+1).
	Timeout time.Duration
	// RedundantTimeout bounds each cycle's redundancy wait.
	RedundantTimeout time.Duration
}

// SoakCycle is one cycle's fingerprint.
type SoakCycle struct {
	Cycle  int
	Target types.ClusterID
	// Goroutines is the settled goroutine count after the cycle's repair
	// completed and the system went quiescent.
	Goroutines int
	// Gaps is the number of open redundancy gaps (must be zero).
	Gaps int
	// RepairAborts counts clean aborts before this cycle's repair stuck.
	RepairAborts int
	// SuppressedDelta / InboxPeak are the §5.4 suppression budget spent
	// this cycle and the cumulative inbox high-water mark after it.
	SuppressedDelta uint64
	InboxPeak       uint64
	// RedundantErr is the cycle's redundancy-oracle verdict.
	RedundantErr error
}

// SoakResult is a completed soak campaign.
type SoakResult struct {
	Seed       int64
	JitterSeed uint64
	Warmup     int
	Cycles     []SoakCycle
	// Run is the underlying sequential run record (outcome, events,
	// metrics, degradation).
	Run *SeqResult
	// Verdict is the drift oracle's judgment.
	Verdict Verdict
}

// RunSoak drives a soak campaign: one long-lived system, Cycles rounds
// of traffic each followed by a crash of the rotation's next target, a
// full repair, and a redundancy wait; each cycle is fingerprinted once
// the system is quiescent again. The fingerprint series is judged by
// CheckSoakDrift before return.
func RunSoak(cfg SoakConfig) *SoakResult {
	cycles := cfg.Cycles
	if cycles <= 0 {
		cycles = DefaultSoakCycles
	}
	warmup := cfg.Warmup
	if warmup <= 0 {
		warmup = DefaultSoakWarmup
	}
	if warmup >= cycles {
		warmup = cycles - 1
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		n := cfg.Scenario.Clusters
		if n < core.MinClusters {
			n = 3
		}
		for i := 0; i < n; i++ {
			targets = append(targets, types.ClusterID((i+2)%n))
		}
	}

	res := &SoakResult{Seed: cfg.Seed, JitterSeed: cfg.JitterSeed, Warmup: warmup}

	// The soak is a sequential plan — one step per cycle — plus a
	// fingerprinting hook between steps. Crash coordinates are drawn from
	// the soak seed so the wire lands at a different phase of each
	// cycle's round.
	kRNG := types.NewRNG(uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xA5)
	plan := SeqPlan{Seed: cfg.Seed, JitterSeed: cfg.JitterSeed}
	for i := 0; i < cycles; i++ {
		plan.Steps = append(plan.Steps, SeqStep{
			Target: targets[i%len(targets)],
			K:      1 + kRNG.Intn(96),
		})
	}

	var prevSuppressed uint64
	c := &SeqCampaign{
		Scenario:         cfg.Scenario,
		Timeout:          cfg.Timeout,
		RedundantTimeout: cfg.RedundantTimeout,
		afterStep: func(sys *core.System, i int, sr *SeqStepResult) {
			// Let in-flight crash-handling chatter finish, then sample.
			sys.Settle(2 * time.Second)
			snap := sys.Metrics().Snapshot()
			suppressed := snap["suppressed_sends"]
			fp := SoakCycle{
				Cycle:           i,
				Target:          sr.Step.Target,
				Goroutines:      leakcheck.Stable(soakStableTimeout),
				Gaps:            len(sys.RedundancyGaps()),
				RepairAborts:    sr.RepairAborts,
				SuppressedDelta: suppressed - prevSuppressed,
				InboxPeak:       snap["inbox_peak"],
				RedundantErr:    sr.RedundantErr,
			}
			prevSuppressed = suppressed
			res.Cycles = append(res.Cycles, fp)
		},
	}
	res.Run = c.Run(plan)
	res.Verdict = CheckSoakDrift(res)
	return res
}

// CheckSoakDrift judges a soak's fingerprint series:
//
//   - every cycle ended fully redundant: no gaps, no redundancy-oracle
//     error, and the run as a whole neither failed, hung, nor degraded;
//   - goroutine count does not drift: every post-warmup cycle stays
//     within a fixed slack of the warmup high-water mark;
//   - the suppression budget does not drift: no post-warmup cycle spends
//     more than twice the warmup's worst per-cycle delta (plus a small
//     constant for cycles whose crash lands at a chattier coordinate);
//   - the inbox watermark plateaus: the final cumulative peak is within
//     2× (plus a constant) of the peak after warmup.
//
// Fingerprints must exist for every cycle; a run that died early fails
// on the missing cycles.
func CheckSoakDrift(res *SoakResult) Verdict {
	var v []string
	run := res.Run
	if run == nil {
		return Verdict{Violations: []string{"no run record"}}
	}
	if run.Hung {
		v = append(v, "soak hung (watchdog expired)")
	}
	if run.Err != nil && !run.Hung {
		v = append(v, fmt.Sprintf("soak error: %v", run.Err))
	}
	if run.Degraded {
		v = append(v, "system degraded during soak")
	}
	want := len(run.Plan.Steps)
	if len(res.Cycles) != want {
		v = append(v, fmt.Sprintf("fingerprints for %d of %d cycles", len(res.Cycles), want))
	}

	var maxG int
	var maxSup, warmPeak uint64
	for _, fp := range res.Cycles {
		if fp.Gaps != 0 {
			v = append(v, fmt.Sprintf("cycle %d: %d redundancy gaps open", fp.Cycle, fp.Gaps))
		}
		if fp.RedundantErr != nil {
			v = append(v, fmt.Sprintf("cycle %d: redundancy oracle: %v", fp.Cycle, fp.RedundantErr))
		}
		if fp.Cycle < res.Warmup {
			if fp.Goroutines > maxG {
				maxG = fp.Goroutines
			}
			if fp.SuppressedDelta > maxSup {
				maxSup = fp.SuppressedDelta
			}
			warmPeak = fp.InboxPeak
			continue
		}
		if fp.Goroutines > maxG+soakGoroutineSlack {
			v = append(v, fmt.Sprintf("cycle %d: goroutines drifted %d -> %d (slack %d)",
				fp.Cycle, maxG, fp.Goroutines, soakGoroutineSlack))
		}
		if fp.SuppressedDelta > 2*maxSup+16 {
			v = append(v, fmt.Sprintf("cycle %d: suppression budget drifted: %d spent (warmup max %d)",
				fp.Cycle, fp.SuppressedDelta, maxSup))
		}
	}
	if n := len(res.Cycles); n > 0 && res.Warmup > 0 && res.Warmup <= n {
		if final := res.Cycles[n-1].InboxPeak; final > 2*warmPeak+64 {
			v = append(v, fmt.Sprintf("inbox peak drifted: %d after warmup, %d at end", warmPeak, final))
		}
	}
	return Verdict{OK: len(v) == 0, Violations: v}
}

// VerdictStream renders the canonical per-cycle verdict lines: cycle
// index, crash target, and the per-cycle oracle outcome. Like the
// schedule search's stream it excludes scheduling-dependent observables
// (raw goroutine counts, watermarks, abort counts) so a passing soak's
// stream is a pure function of its config — same seed, byte-identical.
func (res *SoakResult) VerdictStream() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak seed=%d jitter=%016x cycles=%d warmup=%d\n",
		res.Seed, res.JitterSeed, len(res.Cycles), res.Warmup)
	for _, fp := range res.Cycles {
		status := "redundant"
		if fp.Gaps != 0 || fp.RedundantErr != nil {
			status = "GAPS"
		}
		fmt.Fprintf(&b, "cycle=%02d target=%s %s\n", fp.Cycle, fp.Target, status)
	}
	fmt.Fprintf(&b, "drift=%s\n", res.Verdict)
	return b.String()
}
