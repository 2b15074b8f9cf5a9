// aurolint is the repository's domain-specific static-analysis pass: it
// type-checks the given packages as one program and enforces the
// determinism, locking, lock-order, API, exhaustiveness, and
// protocol-completeness invariants the paper's recovery story depends on
// (see internal/analysis for the check catalogue, AURO000–012, with 009
// and 011 retired).
//
// Usage:
//
//	aurolint ./...                     # whole module
//	aurolint -json ./...               # machine-readable findings
//	aurolint -diff LINT_baseline.json ./...   # gate: fail on NEW findings
//	aurolint -v ./internal/kernel
//
// Findings print as file:line:col: [AURO00X] message; the exit status is 1
// when findings remain (or, in -diff mode, when findings not in the
// baseline appear), 2 on type-checking or loading failures, 0 when clean.
// Suppress an individual finding with `//lint:ignore AURO00X reason` on
// (or directly above) the flagged line; whole-module runs also flag
// suppressions that no longer match anything.
//
// The -diff gate is a baseline discipline: the checked-in
// LINT_baseline.json records accepted findings (kept empty on a clean
// tree), and CI fails on any finding not recorded there. Baseline entries
// match on (file, id, message) — line numbers shift too easily to key on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"auragen/internal/analysis"
)

var (
	flagVerbose = flag.Bool("v", false, "list packages as they are checked")
	flagJSON    = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flagDiff    = flag.String("diff", "", "baseline file: exit non-zero only on findings not present in it")
)

// jsonFinding is the machine-readable form of one finding (and the
// baseline entry format).
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	ID   string `json:"id"`
	Msg  string `json:"msg"`
}

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, module, err := analysis.FindModule(cwd)
	if err != nil {
		fatal(err)
	}
	loader := analysis.NewLoader(root, module)
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	complete, err := coversModule(loader, paths)
	if err != nil {
		fatal(err)
	}

	cfg := analysis.DefaultConfig(module)
	var pkgs []*analysis.Package
	broken := false
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aurolint: %v\n", err)
			broken = true
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "aurolint: %s: %v\n", path, terr)
			}
			broken = true
			continue
		}
		if *flagVerbose {
			fmt.Fprintf(os.Stderr, "aurolint: loaded %s\n", path)
		}
		pkgs = append(pkgs, pkg)
	}
	if broken {
		os.Exit(2)
	}

	findings := analysis.RunProgram(cfg, pkgs, complete)

	if *flagJSON {
		if err := json.NewEncoder(os.Stdout).Encode(toJSON(findings)); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	if *flagDiff != "" {
		os.Exit(diffAgainstBaseline(*flagDiff, findings))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "aurolint: %d finding(s) in %d package(s)\n", len(findings), len(paths))
		os.Exit(1)
	}
}

// coversModule reports whether paths is the full ./... expansion, which
// enables the whole-program existence checks.
func coversModule(loader *analysis.Loader, paths []string) (bool, error) {
	all, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		return false, err
	}
	if len(all) != len(paths) {
		return false, nil
	}
	have := make(map[string]bool, len(paths))
	for _, p := range paths {
		have[p] = true
	}
	for _, p := range all {
		if !have[p] {
			return false, nil
		}
	}
	return true, nil
}

func toJSON(findings []analysis.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename,
			Line: f.Pos.Line,
			Col:  f.Pos.Column,
			ID:   f.ID,
			Msg:  f.Msg,
		})
	}
	return out
}

// diffAgainstBaseline compares findings against the baseline file and
// returns the exit status: 1 when findings absent from the baseline exist,
// 0 otherwise. Baseline entries that no longer fire are reported as stale
// (the baseline should shrink with the fixes) without failing the gate.
func diffAgainstBaseline(path string, findings []analysis.Finding) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var baseline []jsonFinding
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	key := func(file, id, msg string) string { return file + "\x00" + id + "\x00" + msg }
	accepted := make(map[string]int)
	for _, b := range baseline {
		accepted[key(b.File, b.ID, b.Msg)]++
	}
	matched := make(map[string]int)
	fresh := 0
	for _, f := range findings {
		k := key(f.Pos.Filename, f.ID, f.Msg)
		if matched[k] < accepted[k] {
			matched[k]++
			continue
		}
		fresh++
		fmt.Fprintf(os.Stderr, "aurolint: NEW finding (not in %s): %s\n", path, f)
	}
	stale := 0
	for _, b := range baseline {
		k := key(b.File, b.ID, b.Msg)
		if matched[k] > 0 {
			matched[k]--
			continue
		}
		stale++
		fmt.Fprintf(os.Stderr, "aurolint: stale baseline entry (no longer fires): %s [%s] %s\n", b.File, b.ID, b.Msg)
	}
	if fresh > 0 {
		fmt.Fprintf(os.Stderr, "aurolint: %d new finding(s) vs %s\n", fresh, path)
		return 1
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "aurolint: baseline is %d entr(ies) stale; regenerate with -json\n", stale)
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aurolint:", err)
	os.Exit(2)
}
