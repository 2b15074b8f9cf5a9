// Command bench is the repository's benchmark: it boots real core.Systems,
// drives each workload from one closed-loop client connection, checks every
// output, and prints the end-to-end and per-layer metrics BENCHMARK.json
// names. README.md in this directory defines the metrics and workloads.
//
//	go run . --workload echo_ft --seed 1 --seconds 10 --trace 0   (one contract run; from bench/)
//	go run .                                                       (all workloads, both metric sets)
//	go run . -compare a.jsonl b.jsonl                              (two recorded sets, see -o)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// layerBudget is the share of a --trace 1 run's seconds kept back for the
// direct-call layer timings.
const layerBudget = 1500 * time.Millisecond

// Each measured repetition is followed by setupBurst extra boot-to-first-
// operation cycles, so that the set-up samples are spread over the whole run
// like the repetitions are. The first of a burst still pays for the
// repetition before it (its heap just collected, caches cold) and is dropped.
const setupBurst = 3

type header struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Ops        map[string]int `json:"ops_per_rep"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr"`
	N     int     `json:"n"`
	// Reps holds the per-repetition values behind an end-to-end metric.
	Reps []float64 `json:"reps,omitempty"`
}

// record is one workload's outcome in one run: what -o appends and
// -compare reads.
type record struct {
	Header     header               `json:"header"`
	Workload   string               `json:"workload"`
	Trace      int                  `json:"trace"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	LatSamples int                  `json:"latency_samples_per_rep"`
	Metrics    map[string]metricOut `json:"metrics"`
	Notes      []string             `json:"notes,omitempty"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: the five gated ones, repetitions interleaved)")
		seed         = flag.Uint64("seed", 1, "workload seed: transaction plans and payload contents derive from it")
		seconds      = flag.Float64("seconds", 10, "time to measure for, per workload")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics (adds traced repetitions and direct layer timings); default 0 with -workload, else 1")
		reps         = flag.Int("reps", 0, "measure exactly this many repetitions per workload instead of for -seconds")
		scale        = flag.Float64("scale", 1, "multiply every workload's operation count per repetition")
		out          = flag.String("o", "", "append one JSON record per workload to this file")
		compare      = flag.Bool("compare", false, "compare two files written by -o: bench -compare a.jsonl b.jsonl")
		bounds       = flag.String("bounds", "BENCHMARK.json", "with -compare: the file holding the end-to-end regression bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.jsonl b.jsonl")
		}
		if err := runCompare(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: " + strings.Join(flag.Args(), " "))
	}

	ws := workloads[:gatedWorkloads]
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal("unknown workload " + *workloadName)
		}
		ws = []*workloadSpec{w}
	}
	if *traceMode < 0 {
		*traceMode = 1
		if *workloadName != "" {
			*traceMode = 0
		}
	}
	if *traceMode > 1 || *seconds <= 0 || *scale <= 0 || *reps < 0 {
		fatal("need -trace 0|1, -seconds > 0, -scale > 0, -reps >= 0")
	}

	// One processor unless the environment says otherwise: see README,
	// "Why one processor".
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	cfg := runConfig{
		seed: *seed, scale: *scale, reps: *reps, traced: *traceMode == 1,
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	hdr := newHeader(cfg, ws)
	printHeader(os.Stdout, hdr)
	recs, err := runAll(os.Stdout, ws, cfg, hdr)
	if err != nil {
		fatal(err.Error())
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fatal(err.Error())
		}
	}

	// The contract line: the metric set the trace mode selects, every one
	// present. With several workloads the names carry the workload.
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := contractResult{Metrics: map[string]contractValue{}}
	for _, r := range recs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, d := range defs {
			name := d.name
			if len(recs) > 1 {
				name = r.Workload + "/" + d.name
			}
			res.Metrics[name] = contractValue{Value: r.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

type runConfig struct {
	seed   uint64
	scale  float64
	reps   int // 0: time-bounded
	traced bool
	budget time.Duration
}

// series accumulates one workload's repetitions.
type series struct {
	w         *workloadSpec
	plain     map[string][]float64 // from untraced repetitions
	traced    map[string][]float64 // from traced repetitions: T metrics and lat_p50_us
	setup     []float64            // setup_s samples, see setupBurst
	layers    map[string]float64
	attempted int
	failed    int
	samples   int
	notes     []string
	spent     time.Duration
	lastRep   time.Duration
	reps      int
	table     *stageTable // the last traced repetition's
}

// appendAll adds one repetition's values to the per-metric series.
func appendAll(dst map[string][]float64, vals map[string]float64) {
	for k, v := range vals {
		dst[k] = append(dst[k], v)
	}
}

// runAll measures every workload in ws. Repetitions of different workloads
// are interleaved (w1…wn, w1…wn) so that machine drift lands on all of
// them alike.
func runAll(out io.Writer, ws []*workloadSpec, cfg runConfig, hdr header) ([]record, error) {
	all := make([]*series, len(ws))
	for i, w := range ws {
		all[i] = &series{w: w, plain: map[string][]float64{}, traced: map[string][]float64{}}
	}

	// One discarded repetition each: the Go runtime grows its heap and the
	// scheduler its threads on first use, and that is not the system's cost.
	for _, s := range all {
		if _, err := runRep(s.w, cfg.seed, cfg.scale/4, nil); err != nil {
			return nil, err
		}
	}

	budget := cfg.budget
	if cfg.traced {
		budget -= layerBudget
	}
	for active := true; active; {
		active = false
		for _, s := range all {
			if cfg.reps > 0 {
				if s.reps >= cfg.reps {
					continue
				}
			} else if s.reps >= 3 && s.spent+s.lastRep > budget {
				continue
			}
			active = true
			t := time.Now()
			if err := s.runPair(cfg); err != nil {
				return nil, err
			}
			if err := s.sampleSetup(cfg.seed); err != nil {
				return nil, err
			}
			s.lastRep = time.Since(t)
			s.spent += s.lastRep
			s.reps++
		}
	}

	recs := make([]record, len(all))
	for i, s := range all {
		if cfg.traced {
			s.layers = layerMetrics(s.w, cfg.seed, median(s.plain["bus.mean_batch"]))
		}
		recs[i] = s.record(cfg, hdr)
		printRecord(out, &recs[i], s)
	}
	return recs, nil
}

// runPair runs one untraced repetition and, in a traced run, one traced
// repetition beside it.
func (s *series) runPair(cfg runConfig) error {
	r, err := runRep(s.w, cfg.seed, cfg.scale, nil)
	if err != nil {
		return err
	}
	appendAll(s.plain, r.values)
	s.attempted += r.attempted
	s.failed += r.failed
	s.samples = r.samples
	s.notes = append(s.notes, r.notes...)
	if !cfg.traced {
		return nil
	}
	// Seven events per three-way data message, two messages per round trip,
	// and room for sync and establishment traffic. The buffer lives for this
	// repetition only, so untraced repetitions run with the same heap as in
	// an untraced run.
	total := scaled(s.w.ops, cfg.scale) + scaled(s.w.warm, cfg.scale)
	tr, err := runRep(s.w, cfg.seed, cfg.scale, newTracer(total*16+4096))
	if err != nil {
		return err
	}
	s.attempted += tr.attempted
	s.failed += tr.failed
	s.notes = append(s.notes, tr.notes...)
	s.table = joinStages(tr)
	appendAll(s.traced, s.table.values)
	s.traced["lat_p50_us"] = append(s.traced["lat_p50_us"], tr.values["lat_p50_us"])
	return nil
}

// sampleSetup boots to the first operation setupBurst times over.
func (s *series) sampleSetup(seed uint64) error {
	for i := 0; i < setupBurst; i++ {
		r, err := runRep(s.w, seed, 1e-9, nil)
		if err != nil {
			return err
		}
		if i > 0 {
			s.setup = append(s.setup, r.values["setup_s"])
		}
	}
	return nil
}

func (s *series) record(cfg runConfig, hdr header) record {
	rec := record{
		Header: hdr, Workload: s.w.name, Attempted: s.attempted, Failed: s.failed,
		LatSamples: s.samples, Metrics: map[string]metricOut{}, Notes: s.notes,
	}
	if cfg.traced {
		rec.Trace = 1
	}
	put := func(d metricDef, vals []float64) {
		rec.Metrics[d.name] = metricOut{Value: median(vals), Unit: d.unit, IQR: iqr(vals), N: len(vals)}
	}
	for _, d := range endToEnd {
		vals := s.plain[d.name]
		if d.name == "setup_s" {
			vals = s.setup
		}
		put(d, vals)
		m := rec.Metrics[d.name]
		m.Reps = vals
		rec.Metrics[d.name] = m
	}
	if !cfg.traced {
		return rec
	}
	for _, d := range perLayer {
		switch d.source {
		case "T":
			put(d, s.traced[d.name])
		case "D":
			rec.Metrics[d.name] = metricOut{Value: s.layers[d.name], Unit: d.unit, N: layerRounds}
		default:
			put(d, s.plain[d.name])
		}
	}
	base := median(s.plain["lat_p50_us"])
	rec.Metrics["bench.trace_overhead_pct"] = metricOut{
		Value: 100 * safeDiv(median(s.traced["lat_p50_us"])-base, base),
		Unit:  "%", N: len(s.traced["lat_p50_us"]),
	}
	return rec
}

func newHeader(cfg runConfig, ws []*workloadSpec) header {
	h := header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Ops: map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	for _, w := range ws {
		h.Ops[w.name] = scaled(w.ops, cfg.scale)
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "bench: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d scale=%g\n",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Commit, h.Seed, h.Scale)
	names := make([]string, 0, len(h.Ops))
	for n := range h.Ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-14s %d measured operations per repetition\n", n, h.Ops[n])
	}
	fmt.Fprintln(w, "closed loop, one client connection per workload, in-process bus, no injected wire delay")
}

func printRecord(w io.Writer, r *record, s *series) {
	fmt.Fprintf(w, "\n== %s: %d repetitions, %d operations attempted, %d failed, %d latency samples per repetition\n",
		r.Workload, s.reps, r.Attempted, r.Failed, r.LatSamples)
	seen := map[string]bool{}
	for _, n := range r.Notes {
		if !seen[n] {
			fmt.Fprintln(w, "   note:", n)
			seen[n] = true
		}
	}
	fmt.Fprintf(w, "   %-36s %14s %-9s %12s %4s\n", "metric", "median", "unit", "iqr", "n")
	line := func(d metricDef) {
		m, ok := r.Metrics[d.name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-9s %12.4f %4d\n", d.name, m.Value, m.Unit, m.IQR, m.N)
	}
	for _, d := range endToEnd {
		line(d)
	}
	for _, d := range perLayer {
		line(d)
	}
	if s.table != nil {
		s.table.print(w, r.Workload)
	}
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
