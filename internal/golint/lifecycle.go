package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the lifecycle machinery behind G016's response-body
// check (C4): is a value acquired here released on every path out of
// its frame? It holds the acquisition model, the positional path check,
// and an interprocedural release summary computed over the module call
// graph.
//
// The analysis is deliberately positional rather than a full CFG: a
// resource is "released" when a release call (deferred or direct,
// including a call to a module-internal helper whose summary releases
// that parameter) appears anywhere in its frame, and an early return is
// flagged only when it sits between the acquisition and the first
// release without being guarded by the acquisition's own error check.
// Ownership transfers — returning the value, storing it in a field or
// composite literal, passing the bare identifier to a callee that does
// not release it — end the obligation in the caller: the new owner is
// judged in its own frame (or vetted through resourceOwnerAllowlist).

// resourceAcq is one tracked acquisition site.
type resourceAcq struct {
	// obj is the acquired value's object; nil when the value was
	// assigned to the blank identifier.
	obj types.Object
	// errObj is the paired error variable (nil when assigned to the
	// blank identifier); returns guarded by a condition mentioning it
	// are legitimate pre-acquisition-failure exits.
	errObj types.Object
	// pos anchors findings; stmt is the acquiring assignment.
	pos  token.Pos
	stmt *ast.AssignStmt
	// what names the resource in messages ("http.Get response", ...).
	what string
}

// checkAcquisition runs the positional path check for one acquisition
// and renders its G016 findings.
func checkAcquisition(p *Pass, frame *ast.BlockStmt, acq resourceAcq, rel releaseOracle) []Finding {
	if acq.obj == nil {
		// The response was assigned to the blank identifier: nobody can
		// ever close its body.
		f := p.finding(RuleStreamingDiscipline, Error, acq.pos,
			fmt.Sprintf("%s is discarded, so it can never be released", acq.what),
			"bind the value and release it (defer) or transfer ownership")
		return []Finding{f}
	}
	sc := scanLifecycle(p.Pkg.Info, frame, acq, rel)
	if sc.escaped {
		return nil
	}
	if len(sc.releases) == 0 {
		f := p.finding(RuleStreamingDiscipline, Error, acq.pos,
			fmt.Sprintf("%s %s is never released", acq.what, acq.obj.Name()),
			fmt.Sprintf("add `defer %s` after the acquisition's error check", releaseCallText(acq)))
		return []Finding{f}
	}
	if sc.deferredRelease {
		// A deferred release covers every path after the defer runs; the
		// positional early-return check below only applies to direct
		// releases, where returns before the release line leak.
		return nil
	}
	var out []Finding
	first := sc.releases[0]
	for _, pos := range sc.releases[1:] {
		if pos < first {
			first = pos
		}
	}
	for _, ret := range earlyReturns(p.Pkg.Info, frame, acq, first) {
		out = append(out, p.finding(RuleStreamingDiscipline, Error, ret,
			fmt.Sprintf("%s %s is not released on this return path", acq.what, acq.obj.Name()),
			fmt.Sprintf("release with `defer %s` so every return is covered", releaseCallText(acq))))
	}
	return out
}

// releaseCallText renders the releasing call for hints.
func releaseCallText(acq resourceAcq) string {
	return acq.obj.Name() + ".Body.Close()"
}

// assignedObject resolves the object an assignment's left-hand ident
// binds: a definition under :=, a use under plain =.
func assignedObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// lifecycleScan is the result of one frame walk for one acquisition.
type lifecycleScan struct {
	// releases are the positions of release calls (deferred or not);
	// deferredRelease is true when at least one sits under a defer.
	releases        []token.Pos
	deferredRelease bool
	// escaped is true when ownership left the frame: the value was
	// returned, stored, sent, or handed to a non-releasing callee.
	escaped bool
}

// scanLifecycle walks the frame classifying every use of acq.obj as a
// release, an escape, or a plain use. rel answers whether a callee
// releases its n-th parameter (the interprocedural edge).
func scanLifecycle(info *types.Info, frame *ast.BlockStmt, acq resourceAcq, rel releaseOracle) lifecycleScan {
	var sc lifecycleScan
	obj := acq.obj
	if obj == nil {
		return sc
	}
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == obj
	}
	inspectWithStack(frame, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if x := bodyCloseOperand(n); x != nil && isObj(x) {
				sc.releases = append(sc.releases, n.Pos())
				if underDefer(stack) {
					sc.deferredRelease = true
				}
				return true
			}
			// A bare pass of the resource to a callee either releases it
			// there (module summary) or transfers ownership.
			for i, a := range n.Args {
				if !isObj(a) {
					continue
				}
				if callee := staticCallee(info, n); callee != nil && rel != nil && rel(callee, i) {
					sc.releases = append(sc.releases, n.Pos())
					if underDefer(stack) {
						sc.deferredRelease = true
					}
				} else {
					sc.escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if bareIdentIn(info, r, obj) {
					sc.escaped = true
				}
			}
		case *ast.AssignStmt:
			if n == acq.stmt {
				return true
			}
			for _, r := range n.Rhs {
				if bareIdentIn(info, r, obj) {
					sc.escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if bareIdentIn(info, e, obj) {
					sc.escaped = true
				}
			}
		case *ast.SendStmt:
			if bareIdentIn(info, n.Value, obj) {
				sc.escaped = true
			}
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				if bareIdentIn(info, a, obj) {
					sc.escaped = true
				}
			}
		}
		return true
	})
	return sc
}

// bodyCloseOperand returns x for a call of the shape x.Body.Close(),
// nil for any other call.
func bodyCloseOperand(call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	body, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || body.Sel.Name != "Body" {
		return nil
	}
	return body.X
}

// bareIdentIn reports whether the expression mentions obj as a bare
// value — not as the receiver of a field or method selection. Reading
// resp.StatusCode does not move ownership; returning resp (or handing
// it to a composite literal or call) does.
func bareIdentIn(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	inspectWithStack(e, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return !found
		}
		if len(stack) > 0 {
			if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) {
				return true // field/method access, not a value use
			}
		}
		found = true
		return false
	})
	return found
}

// underDefer reports whether the ancestor stack passes through a defer
// statement (directly or via a deferred function literal).
func underDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// earlyReturns lists the returns of the frame's own function (nested
// function literals excluded) that sit strictly between the acquisition
// and the first release and are not guarded by the acquisition's error
// check — the "early error return leaks it" shape.
func earlyReturns(info *types.Info, frame *ast.BlockStmt, acq resourceAcq, firstRel token.Pos) []token.Pos {
	var out []token.Pos
	inspectWithStack(frame, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= acq.stmt.End() || ret.Pos() >= firstRel {
			return true
		}
		if guardedByErrCheck(info, stack, acq.errObj) {
			return true
		}
		out = append(out, ret.Pos())
		return true
	})
	return out
}

// guardedByErrCheck reports whether the stack passes through an if (or
// else-if) whose condition mentions the acquisition's error variable —
// the return inside `if err != nil { ... }` does not leak a resource
// that was never acquired.
func guardedByErrCheck(info *types.Info, stack []ast.Node, errObj types.Object) bool {
	if errObj == nil {
		return false
	}
	objs := map[types.Object]bool{errObj: true}
	for _, n := range stack {
		if ifs, ok := n.(*ast.IfStmt); ok && refersToObject(info, ifs.Cond, objs) {
			return true
		}
	}
	return false
}

// releaseOracle answers whether a callee releases its n-th parameter.
type releaseOracle func(fn *types.Func, param int) bool

// releaseSummaries computes (once per Run) which functions release
// which of their parameters: a parameter is released when the body
// closes its Body, or forwards it bare to another module function that
// releases it — a
// fixpoint over the call graph, so release helpers compose.
func (m *ModuleFacts) releaseSummaries() map[*types.Func]map[int]bool {
	if m.released != nil {
		return m.released
	}
	m.released = make(map[*types.Func]map[int]bool)
	// forwards[fn][i] lists (callee, param) pairs fn forwards its i-th
	// parameter to; the fixpoint propagates release facts across them.
	type fwd struct {
		callee *types.Func
		param  int
	}
	forwards := make(map[*types.Func]map[int][]fwd)
	for _, fn := range m.order {
		ff := m.funcs[fn]
		params := paramObjects(ff.pkg.Info, ff.decl)
		if len(params) == 0 {
			continue
		}
		info := ff.pkg.Info
		ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if i, ok := releasedParamIndex(info, call, params); ok {
				set := m.released[fn]
				if set == nil {
					set = make(map[int]bool)
					m.released[fn] = set
				}
				set[i] = true
				return true
			}
			callee := staticCallee(info, call)
			if callee == nil {
				return true
			}
			for ai, a := range call.Args {
				id, ok := ast.Unparen(a).(*ast.Ident)
				if !ok {
					continue
				}
				for pi, p := range params {
					if info.Uses[id] == p {
						fm := forwards[fn]
						if fm == nil {
							fm = make(map[int][]fwd)
							forwards[fn] = fm
						}
						fm[pi] = append(fm[pi], fwd{callee: callee, param: ai})
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range m.order {
			for pi, fwds := range forwards[fn] {
				if m.released[fn][pi] {
					continue
				}
				for _, f := range fwds {
					if m.released[f.callee][f.param] {
						set := m.released[fn]
						if set == nil {
							set = make(map[int]bool)
							m.released[fn] = set
						}
						set[pi] = true
						changed = true
					}
				}
			}
		}
	}
	return m.released
}

// releaseOracleOf adapts the summaries to the scan callback.
func (m *ModuleFacts) releaseOracleOf() releaseOracle {
	sums := m.releaseSummaries()
	return func(fn *types.Func, param int) bool { return sums[fn][param] }
}

// paramObjects returns the declared parameter objects of fd in order
// (blank and grouped parameters included).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed: never releasable
		}
	}
	return out
}

// releasedParamIndex reports which parameter (if any) the call releases
// directly: p.Body.Close().
func releasedParamIndex(info *types.Info, call *ast.CallExpr, params []types.Object) (int, bool) {
	id, ok := ast.Unparen(bodyCloseOperand(call)).(*ast.Ident)
	if !ok {
		return 0, false
	}
	for i, p := range params {
		if p != nil && info.Uses[id] == p {
			return i, true
		}
	}
	return 0, false
}
