package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file assembles the whole-program view the interprocedural passes
// share: every function declaration across the analyzed packages, a call
// graph over them, and lazy per-function CFGs. Static calls resolve
// directly; calls through an interface method are expanded with class-
// hierarchy analysis (every named type in the program that implements the
// interface contributes its method), so a blocking call or a lock
// acquisition behind an interface still propagates to its call sites.
//
// The loader shares one type-checker cache across packages, so a
// *types.Func seen from a use site in one package is the same object as
// its definition in another — the graph needs no name-based matching.

// Program is the unit the flow-aware passes run over.
type Program struct {
	conf   *Config
	pkgs   []*Package // sorted by import path
	byPath map[string]*Package
	nodes  map[*types.Func]*funcNode
	decls  []*funcNode // deterministic order: package path, then position

	// complete records that the program covers the entire module, so
	// whole-program existence checks (AURO012's "kind is never
	// transmitted") are meaningful. Partial loads still run the flow
	// passes — they just see fewer edges.
	complete bool

	namedTypes []*types.Named
	implCache  map[implCacheKey][]*funcNode
}

type implCacheKey struct {
	iface  *types.Interface
	method string
}

// funcNode is one declared function or method.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	cfg  *funcCFG // built on first use

	// direct lists resolved callees outside nested function literals (the
	// calls that run on this function's goroutine, under its locks).
	// inLit lists callees inside function literals: they may run later or
	// elsewhere, but still tie the program together for existence checks.
	// Interface calls contribute their CHA expansions to both, plus the
	// interface method itself for config funcKey matching.
	direct []*funcNode
	inLit  []*funcNode
}

// NewProgram builds the call graph over pkgs. complete marks that pkgs
// covers the whole module (the `./...` load), enabling whole-program
// existence checks.
func NewProgram(conf *Config, pkgs []*Package, complete bool) *Program {
	pr := &Program{
		conf:      conf,
		pkgs:      append([]*Package(nil), pkgs...),
		byPath:    make(map[string]*Package, len(pkgs)),
		nodes:     make(map[*types.Func]*funcNode),
		complete:  complete,
		implCache: make(map[implCacheKey][]*funcNode),
	}
	sort.Slice(pr.pkgs, func(i, j int) bool { return pr.pkgs[i].Path < pr.pkgs[j].Path })
	for _, p := range pr.pkgs {
		pr.byPath[p.Path] = p
	}

	// Pass 1: index declarations and named types.
	for _, p := range pr.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{fn: fn, decl: fd, pkg: p}
				pr.nodes[fn] = n
				pr.decls = append(pr.decls, n)
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					pr.namedTypes = append(pr.namedTypes, named)
				}
			}
		}
	}

	// Pass 2: resolve call edges.
	for _, n := range pr.decls {
		pr.resolveEdges(n)
	}
	return pr
}

// cfgOf returns the function's CFG, building it on first use.
func (pr *Program) cfgOf(n *funcNode) *funcCFG {
	if n.cfg == nil {
		n.cfg = buildCFG(n.decl.Body)
	}
	return n.cfg
}

func (pr *Program) nodeOf(fn *types.Func) *funcNode {
	if fn == nil {
		return nil
	}
	return pr.nodes[origin(fn)]
}

// origin maps an instantiated generic function back to its declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// isInterfaceMethod reports whether fn is declared on an interface (so a
// call through it dispatches dynamically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// implementations returns the program-internal methods a call to the
// interface method fn may dispatch to (class-hierarchy analysis).
func (pr *Program) implementations(fn *types.Func) []*funcNode {
	sig := fn.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := implCacheKey{iface: iface, method: fn.Name()}
	if impls, ok := pr.implCache[key]; ok {
		return impls
	}
	var impls []*funcNode
	for _, named := range pr.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		sel := ms.Lookup(fn.Pkg(), fn.Name())
		if sel == nil {
			continue
		}
		if m, ok := sel.Obj().(*types.Func); ok {
			if node := pr.nodeOf(m); node != nil {
				impls = append(impls, node)
			}
		}
	}
	pr.implCache[key] = impls
	return impls
}

// resolveEdges fills n.direct and n.inLit from the call sites in its body.
func (pr *Program) resolveEdges(n *funcNode) {
	addTargets := func(list *[]*funcNode, fn *types.Func) {
		if isInterfaceMethod(fn) {
			*list = append(*list, pr.implementations(fn)...)
			return
		}
		if node := pr.nodeOf(fn); node != nil {
			*list = append(*list, node)
		}
	}
	var walk func(root ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(an ast.Node) bool {
			switch an := an.(type) {
			case *ast.FuncLit:
				walk(an.Body, true)
				return false
			case *ast.CallExpr:
				if fn := calleeOf(n.pkg.Info, an); fn != nil {
					if inLit {
						addTargets(&n.inLit, fn)
					} else {
						addTargets(&n.direct, fn)
					}
				}
			}
			return true
		})
	}
	walk(n.decl.Body, false)
}

// closureOf computes the set of functions from which a seed function is
// reachable through the given edge selector (backward closure over the
// call graph): seed(f) marks the base members, and any function with an
// edge into the closure joins it.
func (pr *Program) closureOf(seed func(*funcNode) bool, edges func(*funcNode) []*funcNode) map[*funcNode]bool {
	in := make(map[*funcNode]bool)
	for _, n := range pr.decls {
		if seed(n) {
			in[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pr.decls {
			if in[n] {
				continue
			}
			for _, c := range edges(n) {
				if in[c] {
					in[n] = true
					changed = true
					break
				}
			}
		}
	}
	return in
}
