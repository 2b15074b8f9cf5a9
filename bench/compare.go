package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one file's records for one workload.
type side struct {
	values            map[string][]float64 // metric → one value per recorded run
	iqrs              map[string][]float64 // metric → that run's IQR over its repetitions
	attempted, failed int
}

func readSides(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}, iqrs: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
			s.iqrs[name] = append(s.iqrs[name], m.IQR)
		}
	}
	return out, sc.Err()
}

// pyQuartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance driver computes its spreads with.
func pyQuartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	at := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// centre and spread of one side's metric: over the recorded runs when
// there are at least four, else from the one run's repetitions.
func (s *side) summary(name string) (centre, spread float64) {
	v := s.values[name]
	centre = median(v)
	if len(v) >= 4 {
		q1, q3 := pyQuartiles(v)
		return centre, safeDiv(q3-q1, centre)
	}
	return centre, safeDiv(median(s.iqrs[name]), centre)
}

// runCompare prints, per workload and end-to-end metric, the ratio of b to
// a with its base. A pair is "worse" when b is worse than a by more than
// the metric's bound, and "unresolved" when either side's own spread
// exceeds the bound, so that a difference inside the noise is never
// reported as a result either way.
func runCompare(w io.Writer, boundsPath, aPath, bPath string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := readSides(aPath)
	if err != nil {
		return err
	}
	b, err := readSides(bPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a))
	for n := range a {
		if b[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "spread a", "spread b", "bound", "verdict")
	worse := 0
	for _, n := range names {
		sa, sb := a[n], b[n]
		for _, m := range bf.EndToEnd {
			if len(sa.values[m.Name]) == 0 || len(sb.values[m.Name]) == 0 {
				continue
			}
			ca, spa := sa.summary(m.Name)
			cb, spb := sb.summary(m.Name)
			ratio := safeDiv(cb, ca)
			loss := ratio - 1 // share by which b is worse
			if m.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "ok"
			switch {
			case spa > m.Bound || spb > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %8.3f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				n, m.Name, ca, cb, ratio, 100*spa, 100*spb, 100*m.Bound, verdict)
		}
		fmt.Fprintf(w, "%-12s %-20s %14s %14s\n", n, "failed/attempted",
			fmt.Sprintf("%d/%d", sa.failed, sa.attempted), fmt.Sprintf("%d/%d", sb.failed, sb.attempted))
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs worse beyond their bound", worse)
	}
	return nil
}
