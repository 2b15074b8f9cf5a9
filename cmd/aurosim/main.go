// aurosim renders the Auragen 4000 topology (the paper's architecture
// figure, p.93) and runs a crash/recovery scenario with a live metrics
// report.
//
// Usage:
//
//	aurosim -topology -clusters 4      # render the architecture figure
//	aurosim -scenario bank -crash 2    # run a scenario, fail a cluster
//	aurosim -scenario counter -crash 2 -mode fullback
//	aurosim -scenario counter -crash 2 -timeline   # causal event timeline
//	aurosim -chaos -seed 1             # bounded fault-injection campaign
//	aurosim -chaos -repair             # sequential fault→repair→fault campaign
//	aurosim -chaos -soak               # long-soak: K fault→repair cycles, drift oracle
//	aurosim -chaos -partition          # partition→wrongful-promotion→heal, split-brain oracle
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"auragen/internal/chaos"
	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

var (
	flagTopology = flag.Bool("topology", false, "render the cluster architecture figure")
	flagClusters = flag.Int("clusters", 4, "number of clusters (2-32)")
	flagScenario = flag.String("scenario", "", "scenario to run: counter | bank | pipeline")
	flagCrash    = flag.Int("crash", -1, "cluster to fail mid-scenario (-1: none)")
	flagMode     = flag.String("mode", "quarterback", "backup mode: quarterback | halfback | fullback")
	flagSyncN    = flag.Uint("sync-reads", 16, "reads between syncs (§7.8)")
	flagRestore  = flag.Bool("restore", false, "repair the crashed cluster mid-scenario and return it to service: mirrors resilvered, replicas caught up, every unbacked process re-backed (§7.3)")
	flagTimeline = flag.Bool("timeline", false, "record structured events and print the causal timeline after the run")
	flagSeed     = flag.Int64("seed", 0, "seed a deterministic logical clock (0: wall clock); same seed + same scenario gives identical -timeline timestamps")
	flagChaos    = flag.Bool("chaos", false, "run a bounded fault-injection campaign (crash/bus-failure/transient sweeps against the survival oracle); exits non-zero on any contract violation")
	flagChaosPts = flag.Int("chaos-points", 24, "injection coordinates swept per fault family in -chaos")
	flagRepair   = flag.Bool("repair", false, "with -chaos: run sequential fault→repair→fault campaigns (alternating clusters, one fault mid-re-integration) at strided coordinates, judged by the redundancy-restored oracle")
	flagSoak     = flag.Bool("soak", false, "with -chaos: run one long-lived system through fault→repair→fault cycles and judge the fingerprint series with the drift oracle; exits non-zero on drift")
	flagSoakN    = flag.Int("soak-cycles", chaos.DefaultSoakCycles, "fault→repair cycles for -chaos -soak")
	flagJitter   = flag.Uint64("jitter", 0, "with -chaos -soak: seed the schedule perturber for the whole soak (0: off)")
	flagRepl     = flag.String("replication", "threeway", "with -chaos: backup-protocol strategy the campaigns run: threeway | llft | msglog")
	flagPart     = flag.Bool("partition", false, "with -chaos: run the partition→wrongful-promotion→heal sweep (every shape × every strategy) against the split-brain oracle; exits non-zero on any violation (DESIGN.md §13)")
)

func main() {
	flag.Parse()
	if *flagChaos {
		repl, err := replication.ParseKind(*flagRepl)
		if err != nil {
			log.Fatal(err)
		}
		if *flagPart {
			if err := runChaosPartition(*flagSeed); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *flagSoak {
			if err := runChaosSoak(*flagSeed, *flagSoakN, *flagJitter, repl); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *flagRepair {
			if err := runChaosSequential(*flagSeed, *flagChaosPts, repl); err != nil {
				log.Fatal(err)
			}
			return
		}
		if err := runChaos(*flagSeed, *flagChaosPts, repl); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *flagTopology {
		fmt.Print(renderTopology(*flagClusters))
		if *flagScenario == "" {
			return
		}
	}
	if *flagScenario == "" {
		flag.Usage()
		return
	}
	mode := types.Quarterback
	switch strings.ToLower(*flagMode) {
	case "quarterback":
	case "halfback":
		mode = types.Halfback
	case "fullback":
		mode = types.Fullback
	default:
		log.Fatalf("unknown mode %q", *flagMode)
	}
	if err := runScenario(*flagScenario, *flagClusters, *flagCrash, mode, uint32(*flagSyncN), *flagRestore, *flagTimeline, *flagSeed); err != nil {
		log.Fatal(err)
	}
}

// renderTopology draws the architecture of §7.1: 2–32 clusters on a dual
// intercluster bus, each with work processors, an executive processor, and
// shared memory; dual-ported peripherals hang off cluster pairs 0/1.
func renderTopology(clusters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Auragen 4000 — %d clusters, dual intercluster bus (paper fig., p.93)\n\n", clusters)
	b.WriteString("  Bus A ══")
	for i := 0; i < clusters; i++ {
		b.WriteString("╦═════════")
	}
	b.WriteString("═\n  Bus B ══")
	for i := 0; i < clusters; i++ {
		b.WriteString("╬═════════")
	}
	b.WriteString("═\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString(fmt.Sprintf("  ║ C%-2d    ", i))
	}
	b.WriteString("\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString("┌─╨─────┐ ")
	}
	b.WriteString("\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString("│ EXEC  │ ")
	}
	b.WriteString("  executive processor: all message traffic\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString("│ WP WP │ ")
	}
	b.WriteString("  work processors: user + server processes\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString("│ MEM   │ ")
	}
	b.WriteString("  shared cluster memory\n         ")
	for i := 0; i < clusters; i++ {
		b.WriteString("└─┬─────┘ ")
	}
	b.WriteString("\n")
	b.WriteString("           ├─ dual-ported mirrored disks (clusters 0+1):\n")
	b.WriteString("           │    page server accounts, shadow-block file system\n")
	b.WriteString("           └─ terminals via tty server (clusters 0+1)\n")
	return b.String()
}

func runScenario(name string, clusters, crash int, mode types.BackupMode, syncReads uint32, restore, timeline bool, seed int64) error {
	reg := guest.NewRegistry()
	workload.Register(reg)
	opts := core.Options{Clusters: clusters, SyncReads: syncReads}
	switch {
	case timeline:
		// Large enough that the crash notice and recovery survive the ring
		// even under a busy post-crash tail.
		opts.EventLogLimit = 1 << 18
	case crash >= 0:
		// The crash is a trip on the event log; the ring is not read.
		opts.EventLogLimit = 64
	}
	if seed != 0 {
		// A logical clock makes every timestamp a pure function of the
		// system's own progress: repeated same-seed runs are diffable.
		opts.Clock = types.NewLogicalClock(seed, 0)
	}
	sys, err := core.New(opts, reg)
	if err != nil {
		return err
	}
	defer sys.Stop()
	before := sys.Metrics().Snapshot()

	var watch []types.PID
	switch name {
	case "counter":
		if _, err := sys.Spawn("echo-server", []byte("sim"), core.SpawnConfig{Cluster: 2, Mode: mode}); err != nil {
			return err
		}
		pid, err := sys.Spawn("echo-client", []byte("sim 5000 64"), core.SpawnConfig{Cluster: 1})
		if err != nil {
			return err
		}
		watch = append(watch, pid)
	case "bank":
		if _, err := sys.Spawn("bank-server", []byte("sim 32 1000 0"), core.SpawnConfig{Cluster: 2, Mode: mode}); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			plan := workload.TxnPlan{Accounts: 32, Txns: 2000, Amount: 5, Seed: uint64(i + 1)}
			pid, err := sys.Spawn("teller", []byte(fmt.Sprintf("sim -1 %s", plan.Encode())), core.SpawnConfig{Cluster: 1})
			if err != nil {
				return err
			}
			watch = append(watch, pid)
		}
	case "pipeline":
		if _, err := sys.Spawn("pipe-stage", []byte("in out 9"), core.SpawnConfig{Cluster: 2, Mode: mode}); err != nil {
			return err
		}
		fmt.Println("(pipeline scenario wires one stage; see examples/pipeline for the full chain)")
	default:
		return fmt.Errorf("unknown scenario %q", name)
	}
	fmt.Printf("scenario %q on %d clusters, mode=%s, sync every %d reads\n", name, clusters, mode, syncReads)

	if crash >= 0 {
		sys.EventLog().Trip(trace.EvDeliver.Matches, 1000).Wait()
		fmt.Printf("*** failing cluster%d ***\n", crash)
		if err := sys.Crash(types.ClusterID(crash)); err != nil {
			return err
		}
		if restore {
			// Crash has broadcast the crash notice by the time it returns.
			fmt.Printf("*** cluster%d returns to service ***\n", crash)
			if err := sys.Repair(types.ClusterID(crash)); err != nil {
				return err
			}
		}
	}
	for _, pid := range watch {
		if err := sys.WaitExit(pid, 120*time.Second); err != nil {
			return err
		}
	}
	sys.Settle(2 * time.Second)
	fmt.Println("\nmetrics delta:")
	fmt.Print(indent(sys.Metrics().Snapshot().Delta(before).String()))
	if errs := sys.GuestErrors(); len(errs) > 0 {
		fmt.Println("guest errors:", errs)
	}
	if timeline {
		log := sys.EventLog()
		fmt.Printf("\ncausal timeline (%d events", log.Len())
		if d := log.Dropped(); d > 0 {
			fmt.Printf(", %d older events dropped", d)
		}
		fmt.Println("):")
		fmt.Print(indent(trace.RenderTimeline(log.Events())))
	}
	return nil
}

// runChaos sweeps a bounded fault-injection campaign over the standard bank
// scenario: one tolerated fault per run, injected at strided event-stream
// coordinates, each run judged by the survival oracle. Any violation makes
// the command exit non-zero, so CI can gate on it.
func runChaos(seed int64, points int, repl replication.Kind) error {
	if seed == 0 {
		seed = 1
	}
	if points < 1 {
		points = 1
	}
	c := &chaos.Campaign{
		Scenario: chaos.WithReplication(chaos.BankScenario("aurosim", 4, 6, 2), repl),
		Timeout:  90 * time.Second,
	}
	ref := c.Reference(seed)
	if ref.Err != nil {
		return fmt.Errorf("chaos: reference run failed: %w", ref.Err)
	}
	fmt.Printf("chaos campaign: scenario %q, strategy %s, seed %d, reference outcome %q (%d events)\n",
		c.Scenario.Name, repl, seed, ref.Outcome, len(ref.Events))
	families := []struct {
		name string
		tmpl chaos.Injection
	}{
		{"crash cluster1", chaos.Injection{Fault: chaos.FaultClusterCrash, When: chaos.Any(), Target: 1}},
		{"crash cluster2", chaos.Injection{Fault: chaos.FaultClusterCrash, When: chaos.Any(), Target: 2}},
		{"fail bus0", chaos.Injection{Fault: chaos.FaultBusFailure, When: chaos.Any(), Bus: 0}},
		{"transient drop", chaos.Injection{Fault: chaos.FaultBusTransient, When: chaos.OnKind(trace.EvTransmit), Drops: 1}},
	}
	violations := 0
	for _, f := range families {
		matches := ref.MatchCount(f.tmpl.When)
		stride := matches / points
		if stride < 1 {
			stride = 1
		}
		rep, err := c.Sweep(seed, f.tmpl, stride)
		if err != nil {
			return err
		}
		fmt.Printf("  %-15s %3d/%d coordinates swept (stride %d): %d violations\n",
			f.name, rep.Runs, rep.Matches, rep.Stride, len(rep.Failures))
		for _, p := range rep.Failures {
			fmt.Printf("    K=%d fired=%v: %s\n", p.K, p.Fired, p.Verdict)
		}
		violations += len(rep.Failures)
	}
	if violations > 0 {
		return fmt.Errorf("chaos: %d swept coordinates violated the survival contract", violations)
	}
	fmt.Println("chaos: every swept coordinate honored the survival contract")
	return nil
}

// runChaosPartition drives the partition→wrongful-promotion→heal schedule
// across every partition shape and every replication strategy, judged by
// the split-brain oracle (DESIGN.md §13.3): fencing happened, no delivery
// after a stale primary learned of its supersession, redundancy restored.
func runChaosPartition(seed int64) error {
	if seed == 0 {
		seed = 1
	}
	ks := []int{6, 18, 30}
	rep := chaos.RunPartitionSweep(seed, ks)
	fmt.Printf("chaos partition sweep: seed %d, coordinates %v, %d runs (3 shapes × 3 strategies)\n",
		seed, ks, rep.Runs)
	fmt.Printf("  tripwires fired: %d/%d\n", rep.Fired, rep.Runs)
	fmt.Printf("  step-downs: %d, fenced rejects: %d, partition drops: %d\n",
		rep.StepDowns, rep.FencedRejects, rep.PartitionDrops)
	for _, f := range rep.Failures {
		fmt.Printf("    %s\n", f)
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("chaos -partition: %d/%d runs violated the split-brain contract",
			len(rep.Failures), rep.Runs)
	}
	if rep.StepDowns == 0 {
		return fmt.Errorf("chaos -partition: no stale primary ever stepped down; the sweep created no split brains")
	}
	fmt.Println("chaos: every partition run honored the split-brain contract")
	return nil
}

// runChaosSequential sweeps sequential fault→repair→fault campaigns: three
// single failures alternating clusters (the second re-crashing the cluster
// under repair mid-re-integration), a full repair plus redundancy-restored
// oracle between each, and the first fault's coordinate strided across the
// event stream. Any contract violation exits non-zero.
func runChaosSequential(seed int64, points int, repl replication.Kind) error {
	if seed == 0 {
		seed = 1
	}
	if points < 1 {
		points = 1
	}
	c := &chaos.SeqCampaign{
		Scenario: chaos.WithReplication(chaos.SeqBankScenario("aurosim-seq", 4, 6, 2), repl),
		Timeout:  4 * time.Minute,
	}
	basePlan := func(k int) chaos.SeqPlan {
		return chaos.SeqPlan{Seed: seed, Steps: []chaos.SeqStep{
			{Target: 2, K: k},
			{Target: 0, K: 60, MidRepairArmed: true, MidRepair: 0},
			{Target: 1, K: 60},
		}}
	}
	ref := c.Reference(basePlan(1))
	if ref.Err != nil {
		return fmt.Errorf("chaos -repair: reference run failed: %w", ref.Err)
	}
	// Stride the first fault across roughly the first round's share of the
	// reference event stream; later steps keep fixed coordinates so every
	// run exercises the same alternation and mid-repair re-crash.
	kMax := len(ref.Events) / (2 * len(basePlan(1).Steps))
	if kMax < 1 {
		kMax = 1
	}
	stride := kMax / points
	if stride < 1 {
		stride = 1
	}
	fmt.Printf("sequential chaos campaign: scenario %q, strategy %s, seed %d, reference outcome %q (%d events)\n",
		c.Scenario.Name, repl, seed, ref.Outcome, len(ref.Events))
	violations, runs := 0, 0
	for k := 1; k <= kMax; k += stride {
		plan := basePlan(k)
		run := c.Run(plan)
		runs++
		v := chaos.CheckSequential(ref, run)
		status := "ok"
		if !v.OK {
			violations++
			status = "VIOLATION: " + v.String()
		}
		var windows []string
		for _, st := range run.Steps {
			windows = append(windows, fmt.Sprintf("%d", st.EventsAtRedundant-st.EventsAtCrash))
		}
		fmt.Printf("  K=%-4d fired=%v aborts=%d window=[%s] %s\n",
			k, len(run.Steps) > 0 && run.Steps[0].Fired, seqAborts(run), strings.Join(windows, " "), status)
	}
	if violations > 0 {
		return fmt.Errorf("chaos -repair: %d of %d sequential campaigns violated the contract", violations, runs)
	}
	fmt.Printf("chaos -repair: all %d sequential campaigns honored the repair contract\n", runs)
	return nil
}

// runChaosSoak runs one long-lived bank system through cycles of
// traffic→crash→repair→redundancy-wait, fingerprinting the system after
// each cycle (settled goroutines, open gaps, suppression spend, inbox
// watermark) and judging the whole series with the drift oracle: a
// system that survives every single fault but leaks per cycle still
// fails here. Prints the canonical verdict stream — a pure function of
// (seed, jitter, cycles), so two same-seed runs are byte-diffable.
func runChaosSoak(seed int64, cycles int, jitter uint64, repl replication.Kind) error {
	if seed == 0 {
		seed = 1
	}
	res := chaos.RunSoak(chaos.SoakConfig{
		Scenario:   chaos.WithReplication(chaos.SeqBankScenario("aurosim-soak", 8, 24, 2), repl),
		Cycles:     cycles,
		Seed:       seed,
		JitterSeed: jitter,
	})
	fmt.Print(res.VerdictStream())
	// The stream above is the stable record; the numbers below are the
	// scheduling-dependent observables the oracle judged.
	last := chaos.SoakCycle{}
	if n := len(res.Cycles); n > 0 {
		last = res.Cycles[n-1]
	}
	fmt.Printf("final fingerprint: goroutines=%d inbox_peak=%d repair_aborts=%d\n",
		last.Goroutines, last.InboxPeak, seqAborts(res.Run))
	if !res.Verdict.OK {
		return fmt.Errorf("chaos -soak: drift oracle rejected the run:\n  %s",
			strings.Join(res.Verdict.Violations, "\n  "))
	}
	fmt.Printf("chaos -soak: %d cycles, zero drift\n", len(res.Cycles))
	return nil
}

func seqAborts(r *chaos.SeqResult) int {
	n := 0
	for _, st := range r.Steps {
		n += st.RepairAborts
	}
	return n
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
