package analysis

import (
	"go/ast"
)

// This file builds the intraprocedural control-flow graph the flow-aware
// passes (AURO004 lockset dataflow, AURO010 lock-order edges) run over. It is deliberately stdlib-only: blocks
// hold the statements and control expressions of one straight-line segment
// in evaluation order, and edges follow Go's control constructs —
// including break/continue/goto labels, switch fallthrough, and the
// no-successor treatment of panic, so error paths that cannot fall through
// do not demand cleanup they can never run.
//
// Defers are collected separately, in static registration order: they do
// not execute where they appear, so analyses model them at function exit
// (lock state at return, not at the defer statement).

// block is one basic block: nodes in evaluation order plus successor
// edges.
type block struct {
	nodes []ast.Node
	succs []*block
	index int
	// live marks blocks reachable from entry; dataflow skips dead blocks
	// (code after return/panic) instead of analyzing them from a bottom
	// state.
	live bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*block
	entry  *block
	exit   *block
	// defers lists every defer statement in the body in static order;
	// conservatively, all of them are assumed registered by function
	// exit.
	defers []*ast.DeferStmt
}

// cfgBuilder carries the state of one build.
type cfgBuilder struct {
	g   *funcCFG
	cur *block
	// brk/cont are the innermost targets of an unlabeled break/continue;
	// fall is the next case clause a fallthrough jumps to.
	brk, cont, fall *block
	// labels maps a label name to its targets. Entries are created on
	// first mention, so forward gotos and labeled breaks resolve.
	labels map[string]*labelTargets
}

type labelTargets struct {
	goTo *block // the labeled statement itself
	brk  *block // where `break label` lands
	cont *block // where `continue label` lands (labeled loops only)
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g, labels: make(map[string]*labelTargets)}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.jump(g.exit)
	markLive(g.entry)
	return g
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) labelFor(name string) *labelTargets {
	lt, ok := b.labels[name]
	if !ok {
		lt = &labelTargets{goTo: b.newBlock(), brk: b.newBlock()}
		b.labels[name] = lt
	}
	return lt
}

// jump adds an edge from the current block to dst (when both exist) and
// closes the current block. A nil dst models a statement that never
// continues (panic, break out of nothing in broken code).
func (b *cfgBuilder) jump(dst *block) {
	if b.cur != nil && dst != nil {
		b.cur.succs = append(b.cur.succs, dst)
	}
	b.cur = nil
}

// startBlock makes blk current, continuing into it from the previous block
// when that one was still open.
func (b *cfgBuilder) startBlock(blk *block) {
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, blk)
	}
	b.cur = blk
}

// add appends a node to the current block, opening a fresh (unreachable)
// block after a terminator so trailing dead code still gets a home.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		lt := b.labelFor(s.Label.Name)
		b.startBlock(lt.goTo)
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, lt)
		case *ast.RangeStmt:
			b.rangeStmt(inner, lt)
		case *ast.SwitchStmt:
			b.switchStmt(inner, lt)
		case *ast.TypeSwitchStmt:
			b.typeSwitchStmt(inner, lt)
		case *ast.SelectStmt:
			b.selectStmt(inner, lt)
		default:
			b.stmt(s.Stmt)
			// `break label` on a plain labeled statement jumps past it.
			b.startBlock(lt.brk)
		}
	case *ast.DeferStmt:
		// Arguments are evaluated now; the call itself runs at exit.
		b.add(s)
		b.g.defers = append(b.g.defers, s)
	case *ast.GoStmt:
		// Arguments are evaluated now; the body runs on another goroutine
		// and inherits none of the caller's locks.
		b.add(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, nil)
	case *ast.RangeStmt:
		b.rangeStmt(s, nil)
	case *ast.SwitchStmt:
		b.switchStmt(s, nil)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, nil)
	case *ast.SelectStmt:
		b.selectStmt(s, nil)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(nil)
		}
	default:
		// Leaf statements: assignments, declarations, sends, inc/dec.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			b.jump(b.labelFor(s.Label.Name).brk)
		} else {
			b.jump(b.brk)
		}
	case "continue":
		if s.Label != nil {
			b.jump(b.labelFor(s.Label.Name).cont)
		} else {
			b.jump(b.cont)
		}
	case "goto":
		b.jump(b.labelFor(s.Label.Name).goTo)
	case "fallthrough":
		b.jump(b.fall)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.stmt(s.Init)
	b.add(s.Cond)
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()

	thenB := b.newBlock()
	head.succs = append(head.succs, thenB)
	b.cur = thenB
	b.stmt(s.Body)
	b.jump(join)

	if s.Else != nil {
		elseB := b.newBlock()
		head.succs = append(head.succs, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		b.jump(join)
	} else {
		head.succs = append(head.succs, join)
	}
	b.cur = join
}

// loopJoin returns the break target for a loop: the label's break block
// when the loop is labeled, a fresh block otherwise.
func (b *cfgBuilder) loopJoin(lt *labelTargets) *block {
	if lt != nil {
		return lt.brk
	}
	return b.newBlock()
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, lt *labelTargets) {
	b.stmt(s.Init)
	head := b.newBlock()
	b.startBlock(head)
	b.add(s.Cond)
	head = b.cur // cond evaluation cannot split blocks, but stay safe
	join := b.loopJoin(lt)
	if s.Cond != nil {
		head.succs = append(head.succs, join)
	}

	// continue lands on the post statement when there is one.
	contT := head
	var post *block
	if s.Post != nil {
		post = b.newBlock()
		contT = post
	}
	if lt != nil {
		lt.cont = contT
	}

	body := b.newBlock()
	head.succs = append(head.succs, body)
	savedBrk, savedCont := b.brk, b.cont
	b.brk, b.cont = join, contT
	b.cur = body
	b.stmt(s.Body)
	b.brk, b.cont = savedBrk, savedCont
	if post != nil {
		b.startBlock(post)
		b.stmt(s.Post)
		b.jump(head)
	} else {
		b.jump(head)
	}
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, lt *labelTargets) {
	b.add(s.X)
	head := b.newBlock()
	b.startBlock(head)
	join := b.loopJoin(lt)
	head.succs = append(head.succs, join)
	if lt != nil {
		lt.cont = head
	}

	body := b.newBlock()
	head.succs = append(head.succs, body)
	savedBrk, savedCont := b.brk, b.cont
	b.brk, b.cont = join, head
	b.cur = body
	b.stmt(s.Body)
	b.brk, b.cont = savedBrk, savedCont
	b.jump(head)
	b.cur = join
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, lt *labelTargets) {
	b.stmt(s.Init)
	b.add(s.Tag)
	b.caseClauses(s.Body, lt, true)
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, lt *labelTargets) {
	b.stmt(s.Init)
	b.add(s.Assign)
	b.caseClauses(s.Body, lt, false)
}

func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, lt *labelTargets, allowFall bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.loopJoin(lt)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		head.succs = append(head.succs, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.succs = append(head.succs, join)
	}

	savedBrk, savedFall := b.brk, b.fall
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.brk = join
		if allowFall && i+1 < len(clauses) {
			b.fall = blocks[i+1]
		} else {
			b.fall = nil
		}
		b.stmtList(cc.Body)
		b.jump(join)
	}
	b.brk, b.fall = savedBrk, savedFall
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, lt *labelTargets) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.loopJoin(lt)

	savedBrk := b.brk
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		head.succs = append(head.succs, blk)
		b.cur = blk
		b.stmt(cc.Comm)
		b.brk = join
		b.stmtList(cc.Body)
		b.jump(join)
	}
	b.brk = savedBrk
	// A select with no runnable clause blocks forever: no edge from head
	// to join, so `select {}` correctly never reaches the join.
	b.cur = join
}

// isPanicCall reports whether e is a direct call of the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func markLive(entry *block) {
	var visit func(*block)
	visit = func(blk *block) {
		if blk.live {
			return
		}
		blk.live = true
		for _, s := range blk.succs {
			visit(s)
		}
	}
	visit(entry)
}
