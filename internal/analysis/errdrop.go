package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrdropAnalyzer flags discarded error results: a call used as a bare
// statement (or deferred) whose callee returns an error. `_ = f()` is the
// explicit, greppable opt-out, with //wearlint:ignore errdrop for
// statements that cannot take one. Two rules share one walk:
//
//   - the writer rule: a dropped error from Close or Flush on something
//     that implements io.Writer (bufio.Writer, gzip.Writer, os.File, ...)
//     silently truncates proxylog, report and dataset output. It fires in
//     every package, test files included, but only inside functions that
//     return an error themselves — there the caller could have
//     propagated it;
//   - the general rule: every other discarded error in internal/ and
//     cmd/ outside test files — the Study.planCost bug class, where a
//     computed error was dropped on the floor and a broken plan-cost
//     table shipped silently.
//
// A call both rules match reports once, with the writer-path wording.
// Exemptions, all cases where the error is either unobtainable noise or
// surfaces later through a checked path:
//   - the fmt print family (Print/Printf/Println/Fprint*/...), whose
//     errors re-surface at the destination's Close/Flush — itself
//     guarded by the writer rule;
//   - methods on strings.Builder, bytes.Buffer and hash.Hash, which are
//     documented never to return a non-nil error;
//   - Close/Flush on files opened read-only with os.Open in the same
//     function, and on network transports (anything with a RemoteAddr
//     method), whose teardown errors after a completed exchange are
//     expected noise — actual byte loss there already surfaces as
//     read/write errors.
var ErrdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded error result: Close/Flush on an io.Writer in a function that returns error, or any call in internal/ or cmd/; handle it or assign to _",
	Run:  runErrdrop,
}

// errdropRel scopes the general rule to first-party pipeline and command
// code.
var errdropRel = []string{"internal/...", "cmd/..."}

func runErrdrop(p *Pass) {
	inScope := matchRel(p.Rel, errdropRel)
	for _, f := range p.Files {
		general := inScope && !p.IsTestFile(f.Pos())
		if !general && p.Writer == nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft, body = n.Type, n.Body
			case *ast.FuncLit:
				ft, body = n.Type, n.Body
			}
			if body == nil {
				return true
			}
			writer := p.Writer != nil && funcTypeReturnsError(p, ft)
			if writer || general {
				errdropBody(p, body, writer, general)
			}
			return true
		})
	}
}

// errdropBody flags discarded error results in one function body under
// the rules that apply to it, leaving nested literals to their own visit.
func errdropBody(p *Pass, body *ast.BlockStmt, writer, general bool) {
	readOnly := openedReadOnly(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
		}
		if call == nil {
			return true
		}
		if writer {
			if sel := writerClose(p, call, readOnly); sel != nil {
				p.Reportf(call.Pos(), "error from %s.%s is dropped on a writer path; check it or assign to _ to acknowledge", types.ExprString(sel.X), sel.Sel.Name)
				return true
			}
		}
		if !general {
			return true
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		t := p.TypeOf(call.Fun)
		if t == nil {
			return true
		}
		sig, ok := t.Underlying().(*types.Signature)
		if !ok || !resultsContainError(sig.Results()) {
			return true
		}
		if errdropExempt(p, call, readOnly) {
			return true
		}
		p.Reportf(call.Pos(),
			"error result of %s is discarded; handle it, or assign to _ (with //wearlint:ignore errdrop where a statement cannot) to opt out",
			types.ExprString(call.Fun))
		return true
	})
}

// writerClose returns the selector of a Close or Flush call the writer
// rule flags: an error-returning method on an io.Writer that is neither a
// read-only file nor a network transport. It returns nil otherwise.
func writerClose(p *Pass, call *ast.CallExpr, readOnly map[string]bool) *ast.SelectorExpr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Flush") {
		return nil
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !resultsContainError(sig.Results()) {
		return nil
	}
	recvType := p.TypeOf(sel.X)
	if recvType == nil || !implementsWriter(p, recvType) || closeExempt(p, sel, readOnly) {
		return nil
	}
	return sel
}

// errdropExempt applies the documented exemption classes to one call.
func errdropExempt(p *Pass, call *ast.CallExpr, readOnly map[string]bool) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false // func-value call: no callee identity to exempt on
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	switch recv.String() {
	case "strings.Builder", "bytes.Buffer", "hash.Hash":
		return true
	}
	if fn.Name() == "Close" || fn.Name() == "Flush" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && closeExempt(p, sel, readOnly) {
			return true
		}
	}
	return false
}

// closeExempt reports whether the receiver of a Close/Flush is a file
// opened read-only in the same body or a network transport: neither
// close error signals lost writes.
func closeExempt(p *Pass, sel *ast.SelectorExpr, readOnly map[string]bool) bool {
	if readOnly[types.ExprString(sel.X)] {
		return true
	}
	rt := p.TypeOf(sel.X)
	return rt != nil && isTransport(rt)
}

// openedReadOnly collects the names bound to os.Open results in this
// body: their Close errors cannot signal lost writes.
func openedReadOnly(p *Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || fn.Name() != "Open" {
			return true
		}
		out[types.ExprString(as.Lhs[0])] = true
		return true
	})
	return out
}

// isTransport reports whether the type looks like a network connection.
func isTransport(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "RemoteAddr")
	if obj == nil {
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(t), true, nil, "RemoteAddr")
	}
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// funcTypeReturnsError reports whether the declared results include an
// error.
func funcTypeReturnsError(p *Pass, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if t := p.TypeOf(field.Type); t != nil && isErrorType(t) {
			return true
		}
	}
	return false
}

func resultsContainError(results *types.Tuple) bool {
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func implementsWriter(p *Pass, t types.Type) bool {
	return types.Implements(t, p.Writer) || types.Implements(types.NewPointer(t), p.Writer)
}
