package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Shard-callback discovery, shared by shardpure and floatfold: find
// every function body that the shard runtime (internal/shard Run, Map)
// executes on worker goroutines, together with the call chain that
// registered it. A callback reaches the runtime either
// directly — a literal or named function passed at the call site — or
// through a forwarding wrapper: a module function that hands one of its
// own func-typed parameters to a shard entry point (or to another such
// wrapper; the discovery runs to a fixpoint, which subsumes the
// one-hop case). A callback held in a local variable or returned from a
// call is not resolved — the usual over-approximation trade: the graph
// must never attribute code to a worker that provably runs elsewhere,
// and the repo idiom passes literals at the call site.

// shardCB is one callback body that runs on shard workers.
type shardCB struct {
	// ft and body locate the callback's code; pass is the type-check
	// universe they belong to (the defining unit for named functions).
	ft   *ast.FuncType
	body *ast.BlockStmt
	pass *Pass
	// node is the graph node for named-function callbacks; nil for
	// literals, whose calls the graph attributes to encl.
	node *Node
	// encl is the function whose body registered the callback.
	encl *Node
	// chain is the registration chain, root call first: the call handing
	// the callback toward the shard runtime, plus one step per
	// forwarding wrapper.
	chain []PathStep
	// name renders the callback for diagnostics.
	name string
}

// isShardEntry matches the shard runtime's fan-out entry points.
func isShardEntry(mod *Module, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != mod.Name+"/internal/shard" {
		return false
	}
	switch fn.Name() {
	case "Run", "Map":
		return true
	}
	return false
}

// funcParamPositions returns the indices of a function's func-typed
// parameters — the positions a callback can travel through.
func funcParamPositions(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if _, ok := params.At(i).Type().Underlying().(*types.Signature); ok {
			out = append(out, i)
		}
	}
	return out
}

// refIdent returns the identifier a value reference resolves through
// (plain name or selector), if any.
func refIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// shardCallbacks discovers every shard callback in the module, in
// deterministic graph order. Test functions neither register callbacks
// nor count as wrappers.
func shardCallbacks(mp *ModulePass) []shardCB {
	g := mp.Graph
	mod := mp.Mod

	// sinkParams maps a callee FullName to the param indices that flow to
	// the shard runtime; forward holds the chain below each wrapper.
	sinkParams := map[string]map[int]bool{}
	forward := map[string][]PathStep{}

	// callbackPositions resolves one call site: which argument indices
	// carry callbacks, and the chain steps below this call.
	callbackPositions := func(n *Node, call *ast.CallExpr) ([]int, []PathStep) {
		fn := n.Pass.calleeFunc(call)
		if fn == nil {
			return nil, nil
		}
		if isShardEntry(mod, fn) {
			return funcParamPositions(fn), nil
		}
		sp := sinkParams[fn.FullName()]
		if len(sp) == 0 {
			return nil, nil
		}
		idx := make([]int, 0, len(sp))
		for i := range sp {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		return idx, forward[fn.FullName()]
	}

	// Fixpoint over wrappers: a function forwarding its own func param to
	// a sink becomes a sink itself.
	for changed := true; changed; {
		changed = false
		g.Walk(func(n *Node) {
			if n.Decl == nil || n.Decl.Body == nil || n.Test {
				return
			}
			ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				positions, below := callbackPositions(n, call)
				for _, pi := range positions {
					if pi >= len(call.Args) {
						continue
					}
					id := refIdent(call.Args[pi])
					if id == nil {
						continue
					}
					v, ok := n.Pass.ObjectOf(id).(*types.Var)
					if !ok {
						continue
					}
					own := paramIndexOf(n, v)
					if own < 0 {
						continue
					}
					full := n.Fn.FullName()
					if sinkParams[full] == nil {
						sinkParams[full] = map[int]bool{}
					}
					if !sinkParams[full][own] {
						sinkParams[full][own] = true
						changed = true
					}
					step := PathStep{Func: n.DisplayName(mod), Pos: mod.Fset.Position(call.Pos())}
					forward[full] = append([]PathStep{step}, below...)
				}
				return true
			})
		})
	}

	// Collection pass: every callback argument at every sink call site.
	var cbs []shardCB
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test {
			return
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			positions, below := callbackPositions(n, call)
			for _, pi := range positions {
				if pi >= len(call.Args) {
					continue
				}
				arg := ast.Unparen(call.Args[pi])
				step := PathStep{Func: n.DisplayName(mod), Pos: mod.Fset.Position(call.Pos())}
				chain := append([]PathStep{step}, below...)
				if lit, ok := arg.(*ast.FuncLit); ok {
					cbs = append(cbs, shardCB{
						ft: lit.Type, body: lit.Body, pass: n.Pass,
						encl: n, chain: chain,
						name: "func literal in " + n.DisplayName(mod),
					})
					continue
				}
				id := refIdent(arg)
				if id == nil {
					continue
				}
				if fn, ok := n.Pass.ObjectOf(id).(*types.Func); ok {
					target := g.Nodes[fn.FullName()]
					if target != nil && target.Decl != nil && target.Decl.Body != nil {
						cbs = append(cbs, shardCB{
							ft: target.Decl.Type, body: target.Decl.Body, pass: target.Pass,
							node: target, encl: n, chain: chain,
							name: target.DisplayName(mod),
						})
					}
				}
			}
			return true
		})
	})
	return cbs
}

// paramIndexOf returns the position of v in n's declared parameter
// list, or -1.
func paramIndexOf(n *Node, v *types.Var) int {
	if n.Decl == nil || n.Decl.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range n.Decl.Type.Params.List {
		for _, name := range field.Names {
			if n.Pass.Info.Defs[name] == v {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// renderSteps formats a registration chain for a message: the functions
// along the chain joined by arrows.
func renderSteps(steps []PathStep) string {
	out := ""
	for i, s := range steps {
		if i > 0 {
			out += " → "
		}
		out += s.Func
	}
	return out
}
