package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxflowAnalyzer enforces cancellation on the collection path in two
// phases that share one per-function summary of raw net.Conn I/O and
// deadline guards.
//
// The caller-path phase requires every net.Conn Read/Write in
// internal/mnet to be dominated by a SetDeadline-family call — in the
// same function, or in a caller on every path into it. Deadlines are
// direction-aware: SetDeadline guards both directions, SetReadDeadline
// only reads, SetWriteDeadline only writes. The collection path is the
// only code that reads and writes real sockets, and DESIGN.md §6
// promises none of it can wedge on a dead peer.
//
// The goroutine-path phase covers the collection tier's goroutines:
// every blocking site reachable from a go statement in the proxy/replay
// packages — blocking channel operations, raw net.Conn I/O, and Accept
// loops — must be cancellable, or Close() can wait forever on a parked
// worker. The accepted disciplines:
//
//   - deadline-guarded conn I/O: a SetDeadline-family call for the
//     direction, in the site's function, in the spawning function, or in
//     any function along the spawn chain (the caller-path guard,
//     accumulated forward from the spawn);
//   - selected against shutdown: a select with a default, a done/stop
//     channel case, a ctx.Done() case, or a timer/ticker C case;
//   - joined lifecycle per goleak: a spawned body that joins a WaitGroup
//     bounds its channel operations — some owner waits, and the module's
//     join points are themselves deadline-bounded;
//   - buffered handoff and semaphore: a send into a channel the
//     containing function made with constant capacity, a receive from
//     one (the dial-reaper shape), or a receive from a channel the same
//     function also sends to (a token the function itself deposited).
//
// An Accept loop is stricter: a WaitGroup join does not unpark a kernel
// accept, so the loop's function must visibly observe a done/stop signal
// — the netproxy.Serve shape. Closing the listener from another function
// is invisible to the analysis (documented over-approximation); the
// visible gate also bounds the accept/Close race.
//
// Approximation rules (DESIGN.md §5):
//
//   - Roots are go statements lexically in the collection packages;
//     dynamic (func-valued) spawns are skipped, as in goleak.
//   - Traversal follows call edges but never descends into a nested go
//     statement's body — that body is its own root.
//   - Deadline guards accumulate along the discovery chain only; a guard
//     armed in a sibling call is invisible. sync.WaitGroup.Wait parks
//     are goleak/lockheld territory, not flagged here.
//   - A site both phases flag reports once, with the caller-path
//     finding: its every-caller-path analysis is the sharper verdict.
var CtxflowAnalyzer = &Analyzer{
	Name:      "ctxflow",
	Doc:       "net.Conn Read/Write in internal/mnet needs a SetDeadline-family call in the function or on every caller path into it; blocking channel ops, conn I/O and Accept loops on collection-tier goroutine paths must be cancellable: deadline guard, shutdown select, or joined lifecycle",
	RunModule: runCtxflow,
}

// ctxflowPkgs holds the packages whose go statements root the analysis:
// the live collection tier and its commands.
var ctxflowPkgs = []string{
	"internal/mnet/netproxy",
	"internal/mnet/replay",
	"cmd/wearproxy",
	"cmd/wearreplay",
}

// ctxflowIOScope is the caller-path phase's scope: the collection path
// is the only code that reads and writes real sockets.
var ctxflowIOScope = []string{"internal/mnet/..."}

// ctxGuards is the accumulated deadline state along a spawn chain.
type ctxGuards struct{ read, write bool }

func (g ctxGuards) add(f *deadlineFacts) ctxGuards {
	if f != nil {
		g.read = g.read || f.guardsRead
		g.write = g.write || f.guardsWrite
	}
	return g
}

func runCtxflow(mp *ModulePass) {
	conn := mp.NetConn()
	listener := mp.NetListener()
	g := mp.Graph

	facts := map[*Node]*deadlineFacts{}
	goExt := map[*Node][][2]token.Pos{}
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil {
			return
		}
		if conn != nil {
			facts[n] = connFacts(n.Pass, n.Decl.Body, conn)
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if gs, ok := nd.(*ast.GoStmt); ok {
				if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					goExt[n] = append(goExt[n], [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
				} else {
					goExt[n] = append(goExt[n], [2]token.Pos{gs.Pos(), gs.End()})
				}
			}
			return true
		})
	})

	reported := map[string]bool{}
	if conn != nil {
		ctxflowCallerPaths(mp, facts, reported)
	}
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !matchRel(n.Rel, ctxflowPkgs) {
			return
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if gs, ok := nd.(*ast.GoStmt); ok {
				ctxflowRoot(mp, n, gs, listener, facts, goExt, reported)
			}
			return true
		})
	})
}

// ctxVisit is one BFS frame: a function (optionally restricted to a
// literal body's extent) with the guards and chain accumulated from the
// spawn.
type ctxVisit struct {
	node   *Node
	region *ast.BlockStmt // nil: the whole declared body
	guards ctxGuards
	chain  []PathStep
}

// ctxflowRoot resolves one go statement and scans every function on the
// spawned path.
func ctxflowRoot(mp *ModulePass, n *Node, gs *ast.GoStmt, listener *types.Interface,
	facts map[*Node]*deadlineFacts, goExt map[*Node][][2]token.Pos, reported map[string]bool) {

	mod := mp.Mod
	spawn := PathStep{Func: n.DisplayName(mod), Pos: mod.Fset.Position(gs.Pos())}
	var root ctxVisit
	var joined bool
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		joined = hasWaitGroupJoin(n.Pass, lit.Body)
		root = ctxVisit{node: n, region: lit.Body, guards: ctxGuards{}.add(facts[n]), chain: []PathStep{spawn}}
	} else {
		fn := n.Pass.calleeFunc(gs.Call)
		if fn == nil {
			return // dynamic spawn: unresolvable (documented under-approximation)
		}
		target := mp.Graph.Nodes[fn.FullName()]
		if target == nil || !target.InModule || target.Decl == nil || target.Decl.Body == nil || target.Test {
			return // foreign or bodiless target: goleak judges the spawn itself
		}
		joined = hasWaitGroupJoin(target.Pass, target.Decl.Body)
		root = ctxVisit{node: target, guards: ctxGuards{}.add(facts[n]).add(facts[target]), chain: []PathStep{spawn}}
	}

	visited := map[*Node]bool{root.node: true}
	queue := []ctxVisit{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ctxflowScan(mp, v, joined, listener, facts, goExt, reported)

		lo, hi := v.node.Decl.Body.Pos(), v.node.Decl.Body.End()
		if v.region != nil {
			lo, hi = v.region.Pos(), v.region.End()
		}
		for _, e := range v.node.Out {
			if e.Pos < lo || e.Pos >= hi || ctxExcluded(e.Pos, v, goExt) {
				continue
			}
			c := e.Callee
			if !c.InModule || c.Decl == nil || c.Decl.Body == nil || c.Test || visited[c] {
				continue
			}
			visited[c] = true
			step := PathStep{Func: v.node.DisplayName(mod), Pos: mod.Fset.Position(e.Pos)}
			queue = append(queue, ctxVisit{
				node:   c,
				guards: v.guards.add(facts[c]),
				chain:  append(append([]PathStep(nil), v.chain...), step),
			})
		}
	}
}

// ctxExcluded reports whether pos falls inside a nested go statement's
// extent within the visited frame — those bodies are their own roots.
// The frame's own region (a literal-spawn root) is not an exclusion.
func ctxExcluded(pos token.Pos, v ctxVisit, goExt map[*Node][][2]token.Pos) bool {
	for _, r := range goExt[v.node] {
		if v.region != nil && r[0] == v.region.Pos() && r[1] == v.region.End() {
			continue
		}
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// ctxflowScan judges every blocking site inside one visited frame.
func ctxflowScan(mp *ModulePass, v ctxVisit, joined bool, listener *types.Interface,
	facts map[*Node]*deadlineFacts, goExt map[*Node][][2]token.Pos, reported map[string]bool) {
	n := v.node
	pass, mod := n.Pass, mp.Mod
	body := n.Decl.Body
	region := v.region
	if region == nil {
		region = body
	}
	lo, hi := region.Pos(), region.End()
	inRegion := func(pos token.Pos) bool {
		return pos >= lo && pos < hi && !ctxExcluded(pos, v, goExt)
	}

	flag := func(pos token.Pos, format string, args ...any) {
		key := mod.Fset.Position(pos).String()
		if reported[key] {
			return
		}
		reported[key] = true
		where := " (on goroutine path " + renderSteps(v.chain) + " → " + n.DisplayName(mod) + ")"
		mp.Reportf(pos, v.chain, format+"%s", append(args, where)...)
	}

	// Comm-clause extents: channel ops that are a select's comm are
	// judged at the select, not individually.
	var commRanges [][2]token.Pos
	ast.Inspect(region, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectStmt); ok {
			for _, clause := range sel.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					commRanges = append(commRanges, [2]token.Pos{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
		}
		return true
	})
	inComm := func(pos token.Pos) bool {
		for _, r := range commRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(region, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.SelectStmt:
			if !inRegion(nd.Pos()) || selectHasDefault(nd) || selectHasShutdownCase(pass, nd) || joined {
				return true
			}
			flag(nd.Pos(), "select can park forever: no default, done/stop, or timer case and no joined lifecycle; add a shutdown case (DESIGN.md §5)")
		case *ast.SendStmt:
			if !inRegion(nd.Pos()) || inComm(nd.Pos()) || joined {
				return true
			}
			if obj := chanObject(pass, nd.Chan); obj != nil && chanMadeBuffered(pass, body, obj) {
				return true // buffered handoff made in this function
			}
			flag(nd.Pos(), "blocking send %s <- … with no cancellation: not selected, not a buffered handoff, no joined lifecycle; select it against a done/stop channel (DESIGN.md §5)",
				types.ExprString(nd.Chan))
		case *ast.UnaryExpr:
			if nd.Op != token.ARROW || !inRegion(nd.Pos()) || inComm(nd.Pos()) || joined {
				return true
			}
			if shutdownRecvSource(pass, nd.X) {
				return true
			}
			obj := chanObject(pass, nd.X)
			if obj != nil && (chanMadeBuffered(pass, body, obj) || ctxSendsTo(pass, body, obj)) {
				return true // reaper receive from an own buffered handoff, or semaphore token
			}
			flag(nd.Pos(), "blocking receive from %s with no cancellation: not a done/stop channel, not an own buffered handoff or semaphore, no joined lifecycle; select it against a done/stop channel (DESIGN.md §5)",
				types.ExprString(nd.X))
		case *ast.RangeStmt:
			if !inRegion(nd.Pos()) || joined {
				return true
			}
			if t := pass.TypeOf(nd.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					flag(nd.Pos(), "range over channel %s with no joined lifecycle: the loop parks until the sender closes it; join the goroutine or select with a done/stop case (DESIGN.md §5)",
						types.ExprString(nd.X))
				}
			}
		case *ast.CallExpr:
			if !inRegion(nd.Pos()) {
				return true
			}
			if listener != nil && isAcceptCall(pass, nd, listener) && !hasDoneSignal(pass, region) {
				sel := ast.Unparen(nd.Fun).(*ast.SelectorExpr)
				flag(nd.Pos(), "accept loop is not cancellable: %s.Accept is not gated on a done/stop signal in %s; check a done channel each iteration so Close cannot race a fresh handler (DESIGN.md §5)",
					types.ExprString(sel.X), n.DisplayName(mod))
			}
		}
		return true
	})

	// Raw conn I/O: every site in the region must have its direction
	// guarded in this function or along the spawn chain.
	if f := facts[n]; f != nil {
		for _, site := range f.io {
			if !inRegion(site.pos) {
				continue
			}
			guarded := v.guards.read
			verb, guard := "Read", "SetReadDeadline"
			if site.write {
				guarded = v.guards.write
				verb, guard = "Write", "SetWriteDeadline"
			}
			if guarded {
				continue
			}
			flag(site.pos, "%s.%s can park a goroutine forever: no %s/SetDeadline in this function or along the spawn chain; arm a deadline before the I/O (DESIGN.md §5)",
				site.expr, verb, guard)
		}
	}
}

// ctxSendsTo reports whether the body contains a send into the same
// channel object — the semaphore discipline: a receive of a token the
// function itself deposits.
func ctxSendsTo(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if s, ok := n.(*ast.SendStmt); ok && chanObject(pass, s.Chan) == obj {
			found = true
		}
		return !found
	})
	return found
}

// connIOSite is one raw Read/Write on a net.Conn.
type connIOSite struct {
	pos   token.Pos
	write bool
	expr  string // receiver text, for the message
}

// deadlineFacts summarises one function's raw conn I/O and deadline
// guards for both phases.
type deadlineFacts struct {
	io          []connIOSite
	guardsRead  bool
	guardsWrite bool
}

// ctxflowCallerPaths is the caller-path phase. Facts cover every module
// function — guards outside internal/mnet still count for callers — but
// only in-scope IO sites are reported. Each reported site is recorded so
// the goroutine-path phase does not report it again.
func ctxflowCallerPaths(mp *ModulePass, facts map[*Node]*deadlineFacts, reported map[string]bool) {
	for _, n := range mp.Graph.FuncsIn(ctxflowIOScope) {
		if n.Test {
			continue
		}
		f := facts[n]
		for _, site := range f.io {
			if guardsDirection(f, site.write) {
				continue
			}
			if entry, chain := unguardedEntry(n, site.write, facts); entry != nil {
				verb, guard := "Read", "SetReadDeadline"
				if site.write {
					verb, guard = "Write", "SetWriteDeadline"
				}
				from := ""
				if entry != n {
					from = " (unguarded entry " + entry.DisplayName(mp.Mod) + ": " + renderChain(mp.Mod, chain) + ")"
				}
				reported[mp.Mod.Fset.Position(site.pos).String()] = true
				mp.Reportf(site.pos, pathSteps(mp.Mod, chain),
					"%s.%s can park forever: no %s/SetDeadline in %s or on every caller path into it%s; arm a deadline before the I/O (DESIGN.md §5)",
					site.expr, verb, guard, n.DisplayName(mp.Mod), from)
			}
		}
	}
}

// connFacts scans one body for raw conn IO and deadline guards.
func connFacts(pass *Pass, body *ast.BlockStmt, conn *types.Interface) *deadlineFacts {
	f := &deadlineFacts{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch name {
		case "Read", "Write", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		default:
			return true
		}
		if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); !ok || fn.Pkg() == nil {
			return true
		} else if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil || !types.Implements(t, conn) && !types.Implements(types.NewPointer(t), conn) {
			return true
		}
		switch name {
		case "Read":
			f.io = append(f.io, connIOSite{pos: call.Pos(), write: false, expr: types.ExprString(sel.X)})
		case "Write":
			f.io = append(f.io, connIOSite{pos: call.Pos(), write: true, expr: types.ExprString(sel.X)})
		case "SetDeadline":
			f.guardsRead, f.guardsWrite = true, true
		case "SetReadDeadline":
			f.guardsRead = true
		case "SetWriteDeadline":
			f.guardsWrite = true
		}
		return true
	})
	return f
}

func guardsDirection(f *deadlineFacts, write bool) bool {
	if f == nil {
		return false
	}
	if write {
		return f.guardsWrite
	}
	return f.guardsRead
}

// unguardedEntry walks the caller graph backwards from n looking for a
// path every function of which lacks a matching deadline guard, ending
// at an entry (a function with no non-test module callers). It returns
// that entry and the unguarded call chain entry→…→n, or nil when every
// path into n is guarded. Test callers are skipped: a test harness
// driving an unexported helper is a controlled environment, and the
// helper is reported through its production entries instead.
func unguardedEntry(n *Node, write bool, facts map[*Node]*deadlineFacts) (*Node, []Edge) {
	type item struct {
		n     *Node
		chain []Edge // reversed: edge into n first
	}
	seen := map[*Node]bool{n: true}
	queue := []item{{n: n}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		entry := true
		for _, e := range it.n.In {
			caller := e.Caller
			if caller.Test || !caller.InModule {
				continue
			}
			entry = false
			if seen[caller] {
				continue
			}
			seen[caller] = true
			if guardsDirection(facts[caller], write) {
				continue // this path is guarded; others may not be
			}
			queue = append(queue, item{n: caller, chain: append(append([]Edge(nil), it.chain...), e)})
		}
		if entry {
			chain := make([]Edge, 0, len(it.chain))
			for i := len(it.chain) - 1; i >= 0; i-- {
				chain = append(chain, it.chain[i])
			}
			return it.n, chain
		}
	}
	return nil, nil
}
