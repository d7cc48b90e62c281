package analysis

import (
	"go/types"
)

// ShardpureAnalyzer enforces DESIGN.md §7's callback-purity contract on
// every callback the shard runtime executes concurrently: a callback
// passed to shard.Run / shard.Map — directly or through a forwarding
// wrapper — may write captured shared state only through the fixed-slot
// pattern (results[i] = ..., indexed by its own parameter or a local
// derived from it) or while holding a mutex.
// Everything else a worker writes races or smears: captured map
// inserts, append to a shared slice, bare scalar accumulation, and
// shared-slice writes whose index reaches outside the callback.
//
// Over-approximation rules: a write whose base expression does not
// resolve to a variable is skipped, not guessed (defuse.go's contract);
// callbacks stored in locals or returned from calls are not traced to
// the runtime; and closures invoked by a callback body are attributed
// to the registering function, so their writes are judged as the
// callback's own.
var ShardpureAnalyzer = &Analyzer{
	Name:      "shardpure",
	Doc:       "shard callbacks must not write captured state outside fixed per-index slots or a mutex",
	RunModule: runShardpure,
}

func runShardpure(mp *ModulePass) {
	reported := map[string]bool{}
	for _, cb := range shardCallbacks(mp) {
		du := mp.Mod.FuncDefUse(cb.pass, cb.ft, cb.body)
		for i := range du.Writes {
			w := &du.Writes[i]
			if w.Obj == nil {
				continue // unattributable base: documented over-approximation
			}
			if du.ClassOf(w.Obj) != ClassCaptured {
				continue
			}
			if w.UnderMutex {
				continue
			}
			var what string
			switch w.Kind {
			case WriteMapIndex:
				what = "writes captured map " + w.Obj.Name()
			case WriteAppend:
				what = "appends to captured slice " + w.Obj.Name()
			case WriteIndex:
				if du.OwnIndexed(w.Index) && !du.CapturedIn(w.Index) {
					continue // fixed-slot: results[i] indexed by the callback's own state
				}
				what = "writes captured " + w.Obj.Name() + " at an index not derived from the callback's own parameters"
			default:
				if w.Accum {
					what = "accumulates into captured " + w.Obj.Name() + " (" + types.ExprString(w.Target) + ")"
				} else {
					what = "writes captured " + w.Obj.Name() + " (" + types.ExprString(w.Target) + ")"
				}
			}
			key := mp.Mod.Fset.Position(w.Pos).String()
			if reported[key] {
				continue
			}
			reported[key] = true
			mp.Reportf(w.Pos, cb.chain,
				"shard callback (%s, registered via %s) %s; parallel callbacks may only write fixed per-index slots or hold a mutex (DESIGN.md §7)",
				cb.name, renderSteps(cb.chain), what)
		}
	}
}
