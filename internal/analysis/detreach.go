package analysis

import (
	"go/types"
	"strings"
)

// detreachRoots are the determinism roots: the packages whose outputs
// EXPERIMENTS.md pins byte-for-byte. A time.Now three packages away is
// exactly as fatal to reproducibility as one written in sim code, so the
// reach mode checks the transitive property: an allowlisted networked
// package is only safe while the deterministic pipeline cannot reach it.
var detreachRoots = []string{
	"cmd/wearstudy",
	"internal/study/...",
	"internal/gen/...",
}

// banRule is one family of determinism-hostile functions and where the
// direct mode lets code use them anyway.
type banRule struct {
	// allowed lists the packages that may reference the family directly.
	allowed []string
	// tests reports whether the direct mode checks _test.go files too.
	tests bool
	// fix is the remediation appended to every finding.
	fix string
}

// clockRule covers the wall clock. The two genuinely-networked packages
// (the live proxy and the replay harness speak real TCP, so deadlines and
// stamps must be real time), binaries and examples (which time their own
// phases for operators) may read it; everything else — simulation,
// study, figures — works in simtime hour indices so a run is a pure
// function of its seed. Test files poll real deadlines legitimately.
var clockRule = &banRule{
	allowed: []string{"internal/mnet/netproxy", "internal/mnet/replay", "cmd/...", "examples/..."},
	fix:     "thread internal/simtime hour indices in instead of reading the clock",
}

// randRule covers the process-global math/rand stream: only the
// randomness package itself may touch it, tests included.
var randRule = &banRule{
	allowed: []string{"internal/randx"},
	tests:   true,
	fix:     "split a seeded stream from internal/randx instead of drawing from the global one",
}

// clockFuncs are the time functions that couple output to the host
// clock or scheduler.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// DetreachAnalyzer polices wall-clock and global-rand use in two modes
// that share one predicate, detreachBanned. The reach mode reports every
// banned call the determinism roots can reach through any call chain,
// with the chain in the diagnostic, wherever it lives. The direct mode
// reports every reference to a banned function outside its family's
// allowlist, reached or not. A line both modes flag reports once, with
// the chain — unless a directive along the chain suppresses it, in which
// case the line still answers for its direct use.
var DetreachAnalyzer = &Analyzer{
	Name:      "detreach",
	Doc:       "wall-clock or global math/rand use outside its allowlisted packages, or reachable from the deterministic pipeline (wearstudy, internal/study, internal/gen) through any call chain",
	RunModule: runDetreach,
}

// detreachBanned classifies a function as determinism-hostile: the
// package-level time clock readers and the package-level math/rand
// stream draws. It returns the complaint and the family's rule, or nil
// for a harmless function. Methods compare instants or draw from seeded
// streams, and the rand.New* constructors build seeded streams.
func detreachBanned(fn *types.Func) (string, *banRule) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", nil
	}
	switch pkg.Path() {
	case "time":
		if clockFuncs[fn.Name()] {
			return "time." + fn.Name() + " couples output to the wall clock", clockRule
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			return "rand." + fn.Name() + " draws from the process-global stream", randRule
		}
	}
	return "", nil
}

func runDetreach(mp *ModulePass) {
	reached := detreachReach(mp)
	detreachDirect(mp, reached)
}

// detreachReach reports once per offending call site: every edge whose
// caller the roots reach and whose callee is banned. The chain is the
// shortest discovery path to the caller plus the offending call itself.
// It returns the lines whose reach finding survives suppression, which
// the direct mode then leaves alone; a line whose chain is suppressed at
// some hop still gets its direct verdict.
func detreachReach(mp *ModulePass) map[ignoreKey]bool {
	g := mp.Graph
	var roots []*Node
	g.Walk(func(n *Node) {
		if n.InModule && !n.Test && matchRel(n.Rel, detreachRoots) {
			roots = append(roots, n)
		}
	})
	reach := g.ReachableFrom(roots)

	reached := map[ignoreKey]bool{}
	g.Walk(func(caller *Node) {
		if !reach.Contains(caller) || caller.Test {
			return
		}
		for _, e := range caller.Out {
			if e.Callee.Fn == nil || e.Callee.InModule {
				continue
			}
			why, rule := detreachBanned(e.Callee.Fn)
			if rule == nil {
				continue
			}
			chain := append(reach.PathTo(caller), e)
			root := chain[0].Caller
			mp.Reportf(e.Pos, pathSteps(mp.Mod, chain),
				"%s and is reachable from determinism root %s: %s; %s",
				why, root.DisplayName(mp.Mod), renderChain(mp.Mod, chain), rule.fix)
			// The index is built before any analyzer runs, so the
			// finding just recorded can be checked against it now.
			if d := (*mp.diags)[len(*mp.diags)-1]; !mp.Mod.ign.matches(d) {
				reached[ignoreKey{d.Pos.Filename, d.Pos.Line}] = true
			}
		}
	})
	return reached
}

// detreachDirect reports every identifier reference to a banned function
// in a package outside its family's allowlist, skipping lines the reach
// mode already reported.
func detreachDirect(mp *ModulePass, reached map[ignoreKey]bool) {
	for _, u := range mp.Mod.Units {
		p, _ := mp.Mod.pass(u)
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			why, rule := detreachBanned(fn)
			if rule == nil || matchRel(p.Rel, rule.allowed) {
				continue
			}
			pos := p.Fset.Position(id.Pos())
			if reached[ignoreKey{pos.Filename, pos.Line}] || !rule.tests && strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			mp.Reportf(id.Pos(), nil, "%s outside its allowlisted packages (%s); %s",
				why, strings.Join(rule.allowed, ", "), rule.fix)
		}
	}
}
