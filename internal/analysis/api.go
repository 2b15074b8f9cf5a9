package analysis

import (
	"go/ast"
	"go/types"
)

// checkAPIInvariants implements:
//
//	AURO005 — raw channel sends in deterministic non-bus packages. All
//	  inter-process traffic must ride the bus so it is totally ordered and
//	  visible to backups; a naked `ch <- v` is invisible to the §5.1
//	  protocol.
//	AURO006 — bus.New / kernel.New call sites outside the core assembly
//	  package. Constructing these outside the one wiring point recreates
//	  the seed-era split-metrics bug core.NewObservability exists to fix.
//	AURO007 — message-system calls whose error result is dropped on the
//	  floor. An ExprStmt discard hides bus failures and routing errors;
//	  assigning to _ is allowed because it is a visible, greppable waiver.
func (p *pass) checkAPIInvariants() {
	deterministic := p.cfg.isDeterministic(p.pkg.Path)
	busPath := p.cfg.ModulePath + "/internal/bus"

	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if deterministic && p.pkg.Path != busPath {
					p.reportf(n.Arrow, "AURO005",
						"raw channel send in deterministic package %s bypasses the bus's total order; route the data through bus.BroadcastBatch",
						shortPkg(p.pkg.Path))
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					p.checkIgnoredError(call)
				}
			case *ast.CallExpr:
				p.checkConstructorSite(n)
			}
			return true
		})
	}
}

func (p *pass) checkConstructorSite(call *ast.CallExpr) {
	fn := calleeOf(p.pkg.Info, call)
	if fn == nil || fn.Name() != "New" || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != p.cfg.ModulePath+"/internal/bus" && path != p.cfg.ModulePath+"/internal/kernel" {
		return
	}
	if path == p.pkg.Path || containsString(p.cfg.WiringPkgs, p.pkg.Path) {
		return
	}
	p.reportf(call.Pos(), "AURO006",
		"%s.New called outside the core wiring; assemble systems through the core package so metrics and event sinks stay shared",
		shortPkg(path))
}

func (p *pass) checkIgnoredError(call *ast.CallExpr) {
	fn := calleeOf(p.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || !containsString(p.cfg.MessageSystemPkgs, fn.Pkg().Path()) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !resultsIncludeError(sig) {
		return
	}
	p.reportf(call.Pos(), "AURO007",
		"error result of %s.%s is silently discarded; handle it or assign it to _ explicitly",
		shortPkg(fn.Pkg().Path()), fn.Name())
}

var errorType = types.Universe.Lookup("error").Type()

func resultsIncludeError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}
