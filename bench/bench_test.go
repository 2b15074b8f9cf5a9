package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A scaled-down pass over the five gated workloads, traced repetitions and
// layer timings included: every metric BENCHMARK.json names comes out once
// per workload, finite and with its unit; nothing fails; the stage join
// finds its events.
func TestEveryMetricOnEveryWorkload(t *testing.T) {
	ws := workloads[:gatedWorkloads]
	cfg := runConfig{seed: 7, scale: 0.1, reps: 2, traced: true}
	recs, err := runAll(io.Discard, ws, cfg, newHeader(cfg, ws))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ws) {
		t.Fatalf("%d records for %d workloads", len(recs), len(ws))
	}
	for _, r := range recs {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed (%v)", r.Workload, r.Failed, r.Attempted, r.Notes)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			m, ok := r.Metrics[d.name]
			if !ok {
				t.Errorf("%s: metric %s missing", r.Workload, d.name)
				continue
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", r.Workload, d.name, m.Value)
			}
			if m.Unit != d.unit {
				t.Errorf("%s: %s has unit %q, want %q", r.Workload, d.name, m.Unit, d.unit)
			}
		}
		if len(r.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d defined", r.Workload, len(r.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, d := range endToEnd {
			if r.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", r.Workload, d.name, r.Metrics[d.name].Value)
			}
		}
		if j := r.Metrics["bench.trace_join_pct"].Value; j < 99 {
			t.Errorf("%s: only %.1f%% of traced operations joined", r.Workload, j)
		}
	}
	byName := map[string]record{}
	for _, r := range recs {
		byName[r.Workload] = r
	}
	if v := byName["failover"].Metrics["stall_p50_us"].Value; v <= 0 {
		t.Errorf("failover: stall_p50_us = %v", v)
	}
	if v := byName["failover"].Metrics["kernel.crash_to_recover_us"].Value; v <= 0 {
		t.Errorf("failover: kernel.crash_to_recover_us = %v", v)
	}
	if v := byName["echo_noft"].Metrics["kernel.backup_saves_per_op"].Value; v != 0 {
		t.Errorf("echo_noft: %v backup saves per op, want none", v)
	}
}

// The untraced path: set-up sampling and the contract's end-to-end set.
func TestUntracedRunReportsSetup(t *testing.T) {
	ws := []*workloadSpec{findWorkload("echo_ft")}
	cfg := runConfig{seed: 3, scale: 0.1, reps: 1}
	recs, err := runAll(io.Discard, ws, cfg, newHeader(cfg, ws))
	if err != nil {
		t.Fatal(err)
	}
	m := recs[0].Metrics
	if len(m) != len(endToEnd) {
		t.Errorf("%d metrics in an untraced record, want the %d end-to-end ones", len(m), len(endToEnd))
	}
	if m["setup_s"].N != setupBurst-1 || m["setup_s"].Value <= 0 {
		t.Errorf("setup_s = %+v, want a positive value from %d samples", m["setup_s"], setupBurst-1)
	}
}

// The same seed gives the same inputs, so counts made on the requester's own
// path repeat exactly on the fault-free request/reply workloads. Counts made
// at backup clusters trail the window edges by a few messages, and on the
// one-way stream so does everything downstream of the producer; those are
// not compared. At scale 0.08 bank_sync warms up for 8 transfers and
// measures 80, whole SyncReads=8 intervals, so no sync straddles an edge of
// the window.
func TestSameSeedSameCounts(t *testing.T) {
	exact := []string{
		"bus.transmissions_per_op", "bus.bytes_per_op",
		"kernel.primary_deliveries_per_op", "kernel.syncs_per_kop",
	}
	for _, w := range workloads[:gatedWorkloads] {
		if w.crashEvery > 0 || w.oneWay {
			continue
		}
		a, err := runRep(w, 11, 0.08, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(w, 11, 0.08, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exact {
			if a.values[name] != b.values[name] {
				t.Errorf("%s: %s = %v then %v with the same seed", w.name, name, a.values[name], b.values[name])
			}
		}
	}
}

// BENCHMARK.json and the metric tables in this package say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != gatedWorkloads {
		t.Fatalf("%d workloads listed, %d gated", len(bf.Workloads), gatedWorkloads)
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the package defines %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, p50, p50IQR float64) string {
		path := filepath.Join(dir, name)
		rec := record{Workload: "echo_ft", Attempted: 100, Metrics: map[string]metricOut{
			"ops_per_s":  {Value: ops, Unit: "1/s", IQR: ops * 0.01, N: 5},
			"lat_p50_us": {Value: p50, Unit: "us", IQR: p50IQR, N: 5},
		}}
		if err := appendRecords(path, []record{rec}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[
		{"name":"ops_per_s","better":"higher","bound":0.1},
		{"name":"lat_p50_us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", 1000, 10, 0.1)
	var out bytes.Buffer
	// 20 % fewer operations per second is worse; a p50 whose own spread is
	// 30 % cannot be judged either way.
	err := runCompare(&out, bounds, a, write("b.jsonl", 800, 10.5, 3))
	if err == nil {
		t.Error("a 20% throughput loss passed -compare")
	}
	for _, want := range []string{"worse", "unresolved", "0/100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := runCompare(&out, bounds, a, write("c.jsonl", 950, 10.5, 0.1)); err != nil {
		t.Errorf("differences inside the bound reported as worse: %v\n%s", err, out.String())
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 4, 9, 5, 8, 6, 7}
	q1, q3 := pyQuartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
}
