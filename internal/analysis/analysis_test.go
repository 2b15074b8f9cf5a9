package analysis

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// fixtureLoader loads the module once per test binary; fixture packages and
// their real module dependencies (bus, trace, types) share the cache.
func fixtureLoader(t *testing.T) (*Loader, string) {
	t.Helper()
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	return NewLoader(root, module), module
}

// fixtureConfig marks the fixture packages that model deterministic-core
// code and wires the lock-order and protocol fixtures into their rules;
// everything else comes from the repository defaults.
func fixtureConfig(module string) *Config {
	cfg := DefaultConfig(module)
	fix := func(name string) string { return module + "/internal/analysis/testdata/src/" + name }
	for _, name := range []string{"det_bad", "api_bad", "clean_ok", "suppress_ok", "suppress_bad"} {
		cfg.DeterministicPkgs = append(cfg.DeterministicPkgs, fix(name))
	}
	// List.Ordered models bus.BroadcastBatch's sanctioned multi-instance
	// discipline; PushPair in the same fixture is not listed and must flag.
	cfg.OrderedLockClasses[fix("lockcycle_bad")+".List.mu"] = []string{fix("lockcycle_bad") + ".List.Ordered"}
	cfg.Protocols = append(cfg.Protocols, ProtocolSpec{
		Enum:     fix("protocol_bad") + ".Kind",
		Dispatch: []string{fix("protocol_bad") + ".Dispatch"},
		Transmit: []string{fix("protocol_bad") + ".Transmit"},
	})
	return cfg
}

func loadFixture(t *testing.T, l *Loader, module, name string) *Package {
	t.Helper()
	pkg, err := l.Load(module + "/internal/analysis/testdata/src/" + name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	return pkg
}

// wantRe matches one `// want "..." "..."` expectation comment; each quoted
// string is a regexp that must match a finding reported on the same line.
var (
	wantRe    = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)$`)
	wantArgRe = regexp.MustCompile(`"([^"]*)"`)
)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, arg[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// TestFixtures runs every check family over its seeded fixture package and
// compares the findings against the inline `// want` expectations.
func TestFixtures(t *testing.T) {
	l, module := fixtureLoader(t)
	cfg := fixtureConfig(module)
	for _, name := range []string{"det_bad", "lock_bad", "lockcycle_bad", "api_bad", "switch_bad", "protocol_bad", "clean_ok", "suppress_ok"} {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, l, module, name)
			wants := collectWants(t, pkg)
			// The protocol existence checks only run on complete loads;
			// the fixture package is self-contained, so treating its
			// single-package load as the whole program is sound.
			findings := RunProgram(cfg, []*Package{pkg}, name == "protocol_bad")

		findings:
			for _, f := range findings {
				text := fmt.Sprintf("[%s] %s", f.ID, f.Msg)
				for _, w := range wants {
					if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(text) {
						w.hit = true
						continue findings
					}
				}
				t.Errorf("unexpected finding: %s", f)
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestMalformedSuppression checks AURO000 reporting: a reason-less
// directive, a bogus-ID directive, and (on a complete run) a well-formed
// directive matching no finding are each flagged, and none suppresses the
// underlying AURO001 findings.
func TestMalformedSuppression(t *testing.T) {
	l, module := fixtureLoader(t)
	pkg := loadFixture(t, l, module, "suppress_bad")
	findings := RunProgram(fixtureConfig(module), []*Package{pkg}, true)

	counts := map[string]int{}
	for _, f := range findings {
		counts[f.ID]++
	}
	if counts["AURO000"] != 3 {
		t.Errorf("want 3 AURO000 findings, got %d: %v", counts["AURO000"], findings)
	}
	if counts["AURO001"] != 2 {
		t.Errorf("want 2 surviving AURO001 findings, got %d: %v", counts["AURO001"], findings)
	}
	var sawMissingReason, sawBadID, sawUnused bool
	for _, f := range findings {
		if f.ID != "AURO000" {
			continue
		}
		if strings.Contains(f.Msg, "missing its justification") {
			sawMissingReason = true
		}
		if strings.Contains(f.Msg, "malformed suppression") {
			sawBadID = true
		}
		if strings.Contains(f.Msg, "matches no finding") {
			sawUnused = true
		}
	}
	if !sawMissingReason || !sawBadID || !sawUnused {
		t.Errorf("want missing-reason, bad-ID, and unused AURO000s, got %v", findings)
	}
}

// TestRepoClean asserts the shipped tree itself passes every check — the
// same gate CI enforces with `aurolint ./...`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, module := fixtureLoader(t)
	paths, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", path, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, f := range RunProgram(DefaultConfig(module), pkgs, true) {
		t.Errorf("repo finding: %s", f)
	}
}
