// Package analysis implements aurolint, a domain-specific static-analysis
// pass for this repository. The paper's recovery guarantee (§5, §6) rests
// on backups re-executing deterministically from the last synchronization:
// a backup rolls forward by re-reading saved messages, so any hidden input
// — wall-clock reads, global RNG state, map iteration order feeding message
// emission — silently diverges the replica from its primary. These
// invariants are runtime-invisible until a crash makes them fatal, so they
// are machine-checked here instead.
//
// Check families (stable IDs; see DESIGN.md for the contract each enforces):
//
//	AURO001  wall-clock read (time.Now &c.) inside a deterministic core package
//	AURO002  global math/rand use inside a deterministic core package
//	AURO003  map iteration feeding message emission or the event log
//	AURO004  cross-component blocking call while a mutex is held
//	AURO005  raw channel send bypassing the intercluster bus
//	AURO006  bus.New/kernel.New wired outside the core assembly package
//	AURO007  ignored error from a message-system call
//	AURO008  non-exhaustive switch over a message/event enum
//	AURO010  lock-acquisition-order violation (cycle or unsanctioned
//	         same-class nesting) in the global lock-order graph
//	AURO012  protocol-completeness violation (enum member missing from a
//	         dispatch switch, never constructed, or unreachable from a
//	         transmit entry point)
//	AURO000  malformed or unused //lint:ignore suppression comment
//
// IDs 009 and 011 are retired with the writer pool they policed and are
// not reused.
//
// AURO004, AURO010 and AURO012 are flow-aware: they run over an
// intraprocedural CFG (cfg.go) and a whole-program call graph
// (callgraph.go) built with nothing but go/ast and go/types, so branch,
// defer, and cross-function paths are analyzed rather than pattern-matched.
// RunProgram is their entry point; the per-package checks still run
// per package within it.
//
// A finding on line N is suppressed by `//lint:ignore AURO00X reason` on
// line N or N-1; the reason is mandatory, so every suppression documents
// why the flagged site is safe. On whole-module runs a suppression that
// matches no finding is itself reported (AURO000): stale suppressions are
// deleted, not accumulated.
//
// The driver is stdlib-only (go/parser + go/types + go/importer); see
// cmd/aurolint for the command-line front end.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos token.Position
	ID  string
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.ID, f.Msg)
}

// Config scopes the checks to the packages and APIs they guard.
type Config struct {
	// ModulePath is the module being analyzed.
	ModulePath string
	// DeterministicPkgs lists the import paths of the deterministic core:
	// packages on the simulated kernel/bus path whose re-execution must be
	// reproducible for the §5 roll-forward guarantee (AURO001/002/003/005).
	DeterministicPkgs []string
	// WiringPkgs lists the packages allowed to call bus.New and kernel.New
	// (the system-assembly wiring, AURO006).
	WiringPkgs []string
	// MessageSystemPkgs lists the packages whose error returns must not be
	// silently discarded (AURO007).
	MessageSystemPkgs []string
	// EnumTypes lists "pkgpath.TypeName" enums whose switches must be
	// exhaustive or carry a default (AURO008).
	EnumTypes []string
	// BlockingCalls lists "pkgpath.Recv.Method" (or "pkgpath.Func") calls
	// that block on cross-component synchronization and therefore must not
	// run while the caller holds a mutex (AURO004).
	BlockingCalls []string
	// EmitCalls lists the message-emission and trace-output calls whose
	// order is observable ("pkgpath.Recv.Method"); reaching one from inside
	// a map iteration is AURO003.
	EmitCalls []string
	// EmitLocalFuncs lists per-package function names treated as emission
	// roots (e.g. the kernel's queueLocked outgoing-queue append).
	EmitLocalFuncs []string
	// OrderedLockClasses maps a lock class ("pkgpath.Type.field") to the
	// functions (funcKey form) sanctioned to hold several instances of
	// that class at once under a canonical acquisition order. Same-class
	// nesting anywhere else is AURO010.
	OrderedLockClasses map[string][]string
	// Protocols lists the message-protocol enums whose members must be
	// wired end to end (AURO012).
	Protocols []ProtocolSpec
}

// DefaultConfig returns the repository configuration for the given module
// path.
func DefaultConfig(module string) *Config {
	in := func(p string) string { return module + "/internal/" + p }
	return &Config{
		ModulePath: module,
		DeterministicPkgs: []string{
			in("bus"), in("kernel"), in("routing"), in("pager"),
			in("memory"), in("types"), in("wire"),
		},
		WiringPkgs: []string{in("core")},
		MessageSystemPkgs: []string{
			in("bus"), in("kernel"), in("pager"), in("disk"), in("core"),
			in("fileserver"), in("procserver"), in("ttyserver"),
			in("directory"), in("fault"), in("guest"), in("chaos"),
		},
		EnumTypes: []string{
			in("trace") + ".EventKind",
			in("types") + ".Kind",
			in("types") + ".RepairPhase",
			in("chaos") + ".Fault",
		},
		BlockingCalls: []string{
			in("bus") + ".Bus.BroadcastBatch",
			in("bus") + ".Bus.Attach",
			in("bus") + ".Bus.Detach",
			in("bus") + ".Inbox.PopAll",
			// HandlePageRequest is a synchronous read-back RPC against the
			// page store. The remaining PagerSink methods are deliberately
			// absent: they are ordered state-appliers that MUST run inside
			// the dispatch critical section to preserve the §5.1 per-cluster
			// order, and the pager is a leaf component (it takes only its
			// own mutex and never calls back into kernel or bus).
			in("kernel") + ".PagerSink.HandlePageRequest",
		},
		EmitCalls: []string{
			in("bus") + ".Bus.BroadcastBatch",
			in("trace") + ".EventLog.Append",
			in("trace") + ".EventLog.Add",
		},
		EmitLocalFuncs: []string{"queueLocked", "logMsg"},
		OrderedLockClasses: map[string][]string{
			// BroadcastBatch stages one batch into the inboxes of the ports
			// it reaches and holds them to the end of the batch. It does so
			// under the bus lock, so no two such acquisitions overlap
			// (DESIGN.md §9.1), which makes the same-class nesting
			// deadlock-free whatever the order. No other function may hold
			// two Inbox locks at once.
			in("bus") + ".Inbox.mu": {in("bus") + ".Bus.BroadcastBatch"},
		},
		Protocols: []ProtocolSpec{{
			Enum: in("types") + ".Kind",
			Dispatch: []string{
				// Message intake, replay classification, and trace
				// rendering each make a per-kind decision; every kind must
				// appear explicitly in all three.
				in("kernel") + ".Kernel.dispatchLocked",
				in("kernel") + ".replayableKind",
				in("types") + ".Kind.String",
			},
			Transmit: []string{
				in("bus") + ".Bus.BroadcastBatch",
				in("kernel") + ".Kernel.queueLocked",
			},
			EmitExempt: []string{
				// The zero value: constructing an invalid message is a bug
				// caught elsewhere, not a protocol path.
				"KindInvalid",
				// Failure-detection probes are a synchronous callback in
				// this simulation (fault.Detector's Probe), deliberately
				// off the bus so they cannot perturb replayed traces; the
				// kind is reserved for a future asynchronous detector.
				"KindHeartbeat",
			},
		}},
	}
}

func (c *Config) isDeterministic(pkgPath string) bool {
	return containsString(c.DeterministicPkgs, pkgPath)
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// pass carries the state of one package's analysis.
type pass struct {
	cfg      *Config
	pkg      *Package
	findings []Finding
}

func (p *pass) reportf(pos token.Pos, id, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos: p.pkg.Fset.Position(pos),
		ID:  id,
		Msg: fmt.Sprintf(format, args...),
	})
}

// progPass carries the state of one whole-program analysis.
type progPass struct {
	pr       *Program
	findings []Finding
}

func (pp *progPass) reportf(pkg *Package, pos token.Pos, id, format string, args ...any) {
	pp.findings = append(pp.findings, Finding{
		Pos: pkg.Fset.Position(pos),
		ID:  id,
		Msg: fmt.Sprintf(format, args...),
	})
}

// RunProgram analyzes pkgs as one program: the per-package checks run on
// each package, then the flow-aware passes (AURO004/010/012) run over
// the shared call graph. complete marks that pkgs covers the whole module,
// enabling whole-program existence checks (protocol emission, unused
// suppressions). Findings are returned in file/line order with
// suppressions applied program-wide.
func RunProgram(cfg *Config, pkgs []*Package, complete bool) []Finding {
	pr := NewProgram(cfg, pkgs, complete)
	pp := &progPass{pr: pr}
	for _, pkg := range pr.pkgs {
		p := &pass{cfg: cfg, pkg: pkg}
		p.checkDeterminism()
		p.checkAPIInvariants()
		p.checkExhaustiveness()
		pp.findings = append(pp.findings, p.findings...)
	}
	pp.checkLockFlow()
	pp.checkProtocol()
	findings := applyProgramSuppressions(pr, pp.findings)
	sortFindings(findings)
	return findings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].ID < findings[j].ID
	})
}

// calleeOf resolves the function or method called by call, or nil when the
// callee is not a simple named function (conversions, func-valued
// expressions, builtins).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcKey renders fn as "pkgpath.Recv.Method" for methods or
// "pkgpath.Func" for package-level functions, matching the Config lists.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	// Unnamed receiver (interface literal): fall back to the type string.
	return pkg + "." + t.String() + "." + fn.Name()
}

// walkFuncBodies visits every function and method body in the package,
// including the enclosing declaration.
func (p *pass) walkFuncBodies(visit func(decl *ast.FuncDecl)) {
	for _, f := range p.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// inspectSkippingFuncLits walks n, calling visit for each node, without
// descending into nested function literals (their bodies execute on other
// goroutines or at other times, so lock state does not carry into them).
func inspectSkippingFuncLits(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		return visit(node)
	})
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
