package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoleakAnalyzer flags goroutines launched on the live collection paths
// whose bodies can block forever with no bounded exit — the leak class
// that wedges the proxy tier under connection churn. A spawned body that
// the blocking classification (reach.go) marks as able to park must show
// one of four exit disciplines:
//
//   - WaitGroup join: the body (nested literals included) calls Done on
//     a sync.WaitGroup, so some owner can wait for it.
//   - Done-channel signal: the body receives from a ctx.Done()-style
//     call or a channel whose name signals shutdown (done, stop, quit,
//     cancel, ...).
//   - Buffered handoff: the body's only channel operations are sends
//     into channels created with make(chan T, k), k >= 1 constant, in
//     the spawning function — a send proven non-blocking, after which
//     the body runs off its end.
//   - Completion close: the body closes a channel, signalling its own
//     completion to a waiter.
//
// Approximation rules (DESIGN.md §5): a goroutine spawned through a
// func-valued variable is not resolved (over-approximation would
// misattribute bodies); a non-blocking body is never flagged even if it
// loops forever (termination is out of scope — blocking classification
// is the oracle); blocking I/O inside a buffered-handoff body is judged
// by ctxflow's caller-path phase, not here.
var GoleakAnalyzer = &Analyzer{
	Name:      "goleak",
	Doc:       "goroutines on collection paths must have a bounded exit: WaitGroup join, done-channel signal, buffered handoff, or completion close",
	RunModule: runGoleak,
}

// goleakPkgs scopes the check to the packages that own long-lived
// goroutines: the measurement network tier, the shard runtime, the
// commands, and the runnable examples (inside the module walk; see
// DESIGN.md §5).
var goleakPkgs = []string{"internal/mnet/...", "internal/shard", "cmd/...", "examples/..."}

func runGoleak(mp *ModulePass) {
	g := mp.Graph
	blocking := g.BlockingNodes()
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !matchRel(n.Rel, goleakPkgs) {
			return
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if gs, ok := nd.(*ast.GoStmt); ok {
				checkGoStmt(mp, n, gs, blocking)
			}
			return true
		})
	})
}

// checkGoStmt resolves one go statement's body and demands an exit
// discipline when the body can block.
func checkGoStmt(mp *ModulePass, n *Node, gs *ast.GoStmt, blocking map[*Node]bool) {
	g, mod := mp.Graph, mp.Mod
	var (
		body   *ast.BlockStmt
		pass   = n.Pass
		reason string
		path   []PathStep
	)
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
		if hasBlockingConstruct(pass, body) {
			reason = "it performs channel operations"
		} else {
			// The literal's calls are attributed to the enclosing node;
			// filter its out-edges to the literal's extent.
			for _, e := range n.Out {
				if e.Pos < body.Pos() || e.Pos >= body.End() || !blocking[e.Callee] {
					continue
				}
				reason = "it calls " + e.Callee.DisplayName(mod) + ", which " + g.BlockingReason(e.Callee, blocking)
				break
			}
			if reason == "" {
				return // the body cannot block: exit is bounded by its own code
			}
		}
	} else {
		fn := pass.calleeFunc(gs.Call)
		if fn == nil {
			return // dynamic spawn: unresolvable (documented under-approximation)
		}
		target := g.Nodes[fn.FullName()]
		if target == nil || target.Decl == nil || target.Decl.Body == nil {
			if fn != nil && blockingLeaf(fn) {
				mp.Reportf(gs.Pos(), nil,
					"goroutine has no bounded exit: %s blocks outright with no join (DESIGN.md §5)", fn.FullName())
			}
			return
		}
		if !blocking[target] {
			return
		}
		body, pass = target.Decl.Body, target.Pass
		reason = target.DisplayName(mod) + " " + g.BlockingReason(target, blocking)
		path = []PathStep{{Func: n.DisplayName(mod), Pos: mod.Fset.Position(gs.Pos())}}
	}
	if hasWaitGroupJoin(pass, body) || hasDoneSignal(pass, body) || callsClose(pass, body) ||
		bufferedHandoffOnly(pass, n, body) {
		return
	}
	mp.Reportf(gs.Pos(), path,
		"goroutine has no bounded exit: %s; join it with a WaitGroup, select on a done channel, or hand off on a buffered channel and return (DESIGN.md §5)",
		reason)
}

// hasWaitGroupJoin reports whether the body calls Done on a
// sync.WaitGroup (nested literals included).
func hasWaitGroupJoin(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Name() != "Done" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if t.String() == "sync.WaitGroup" {
			found = true
		}
		return !found
	})
	return found
}

// hasDoneSignal reports whether the body receives from a Done()-style
// call or a shutdown-named channel.
func hasDoneSignal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		ue, ok := nd.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			return true
		}
		if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
			if id := refIdent(call.Fun); id != nil && id.Name == "Done" {
				found = true
			}
			return !found
		}
		if id := refIdent(ue.X); id != nil && shutdownName(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// shutdownName matches channel names that conventionally signal
// termination.
func shutdownName(name string) bool {
	l := strings.ToLower(name)
	for _, kw := range []string{"done", "stop", "quit", "exit", "cancel", "shut", "kill"} {
		if strings.Contains(l, kw) {
			return true
		}
	}
	return false
}

// callsClose reports whether the body calls the close builtin.
func callsClose(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
				found = true
			}
		}
		return !found
	})
	return found
}

// bufferedHandoffOnly reports whether the body's only channel operations
// are sends into channels the spawning function created with a constant
// capacity >= 1 — a handoff proven non-blocking.
func bufferedHandoffOnly(pass *Pass, spawner *Node, body *ast.BlockStmt) bool {
	var sends []*ast.SendStmt
	other := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if other {
			return false
		}
		switch nd := nd.(type) {
		case *ast.SendStmt:
			sends = append(sends, nd)
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				other = true
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(nd.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					other = true
					return false
				}
			}
		case *ast.SelectStmt:
			other = true // any select counts as an unbounded wait here
			return false
		}
		return true
	})
	if other || len(sends) == 0 || spawner.Decl == nil || spawner.Decl.Body == nil {
		return false
	}
	for _, s := range sends {
		id, ok := ast.Unparen(s.Chan).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !chanMadeBuffered(spawner.Pass, spawner.Decl.Body, obj) {
			return false
		}
	}
	return true
}

// chanMadeBuffered reports whether obj is assigned make(chan T, k) with
// constant k >= 1 anywhere in scope.
func chanMadeBuffered(pass *Pass, scope *ast.BlockStmt, obj types.Object) bool {
	buffered := false
	ast.Inspect(scope, func(nd ast.Node) bool {
		if buffered {
			return false
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				continue
			}
			if makeBufferedChan(pass, as.Rhs[i]) {
				buffered = true
			}
		}
		return !buffered
	})
	return buffered
}

// makeBufferedChan matches make(chan T, k) with constant k >= 1.
func makeBufferedChan(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() != "0" && !strings.HasPrefix(tv.Value.String(), "-")
}
