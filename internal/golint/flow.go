package golint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the dataflow helpers shared by the concurrency and
// allocation analyzers: ancestor-stack traversal, loop and cold-path
// context, and the syntactic lock-region scan G009 rests on.

// inspectWithStack walks the AST under root calling fn with the current
// ancestor stack (root's ancestors excluded; stack[len-1] is the direct
// parent). Returning false prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// inLoopAt reports whether pos sits inside the body of a for or range
// statement on the ancestor stack. Positions in a loop's init, cond, or
// post clause run once per iteration too, but only body membership is
// claimed here — the clauses are vanishingly rare allocation sites.
func inLoopAt(stack []ast.Node, pos token.Pos) bool {
	for _, a := range stack {
		var body *ast.BlockStmt
		switch s := a.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			return true
		}
	}
	return false
}

// onColdPath reports whether the site sits in a block that directly
// returns a non-nil error or panics — a failure path that runs once,
// not per loop iteration. The function's outermost body is never
// considered cold: a function whose main path returns an error is not
// thereby exempt.
func onColdPath(info *types.Info, fd *ast.FuncDecl, stack []ast.Node) bool {
	for _, a := range stack {
		block, ok := a.(*ast.BlockStmt)
		if !ok || block == fd.Body {
			continue
		}
		for _, st := range block.List {
			switch st := st.(type) {
			case *ast.ReturnStmt:
				if len(st.Results) == 0 {
					continue
				}
				last := st.Results[len(st.Results)-1]
				if _, isNil := info.Types[last]; isNil && info.Types[last].IsNil() {
					continue
				}
				if isErrorType(info.TypeOf(last)) {
					return true
				}
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// innermostFuncLit returns the innermost function literal on the stack,
// or nil when the position is in the declared function's own frame.
func innermostFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// rootIdent peels index, selector, paren, and deref layers off an
// lvalue and returns its base identifier (nil when the base is not an
// identifier, e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isSyncType reports whether t is sync.<name> or *sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isMutexType reports whether t is a sync.Mutex or sync.RWMutex
// (optionally behind a pointer), or a named type embedding one.
func isMutexType(t types.Type) bool {
	if isSyncType(t, "Mutex") || isSyncType(t, "RWMutex") {
		return true
	}
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() && (isSyncType(f.Type(), "Mutex") || isSyncType(f.Type(), "RWMutex")) {
					return true
				}
			}
		}
	}
	return false
}

// isWaitGroupType reports whether t is sync.WaitGroup or
// *sync.WaitGroup.
func isWaitGroupType(t types.Type) bool { return isSyncType(t, "WaitGroup") }

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// mutexCallTarget recognizes calls of the shape x.Lock / x.RLock /
// x.Unlock / x.RUnlock on a mutex-typed receiver and returns the
// receiver's source text (the region key) and the method name.
func mutexCallTarget(info *types.Info, call *ast.CallExpr) (recv, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if !isMutexType(info.TypeOf(sel.X)) {
		return "", ""
	}
	return exprText(sel.X), sel.Sel.Name
}

// containsMutexCall reports whether any call to the given methods on
// the given receiver text appears under n, excluding calls inside defer
// statements when skipDeferred is set (a deferred unlock does not end
// the locked region) and excluding nested function literals (their
// bodies run on their own schedule).
func containsMutexCall(info *types.Info, n ast.Node, recv string, methods map[string]bool, skipDeferred bool) bool {
	found := false
	inspectWithStack(n, func(c ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		if skipDeferred {
			if _, ok := c.(*ast.DeferStmt); ok {
				return false
			}
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if r, m := mutexCallTarget(info, call); r == recv && methods[m] {
			found = true
		}
		return true
	})
	return found
}

// posRange is a half-open source region.
type posRange struct {
	from, to token.Pos
}

// contains reports whether pos falls inside the range.
func (r posRange) contains(pos token.Pos) bool { return r.from <= pos && pos < r.to }

// lockHeldRanges computes, per block of one function frame, the source
// ranges over which some mutex is syntactically held: from the
// statement after x.Lock()/x.RLock() up to (exclusive) the first later
// statement in the same block that contains a matching unlock anywhere
// — the conservative cut, since a branch may release the lock — or to
// the block's end when the unlock is deferred or absent. Nested
// function literals are separate frames and are skipped entirely: a
// closure *defined* under a lock does not *run* under it, and a
// goroutine body does not inherit its creator's lock state. Callers
// analyze each frame's body separately.
func lockHeldRanges(info *types.Info, body *ast.BlockStmt) []posRange {
	var out []posRange
	unlockOf := map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}
	var scanBlock func(list []ast.Stmt)
	scanBlock = func(list []ast.Stmt) {
		for i, st := range list {
			call, ok := exprCall(st)
			if !ok {
				continue
			}
			recv, method := mutexCallTarget(info, call)
			if recv == "" || (method != "Lock" && method != "RLock") {
				continue
			}
			end := token.Pos(0)
			if len(list) > 0 {
				end = list[len(list)-1].End()
			}
			for j := i + 1; j < len(list); j++ {
				if containsMutexCall(info, list[j], recv, map[string]bool{unlockOf[method]: true}, true) {
					end = list[j].Pos()
					break
				}
			}
			if st.End() < end {
				out = append(out, posRange{from: st.End(), to: end})
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if block, ok := n.(*ast.BlockStmt); ok {
			scanBlock(block.List)
		}
		return true
	})
	return out
}

// exprCall unwraps an expression statement holding a call.
func exprCall(st ast.Stmt) (*ast.CallExpr, bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok
}

// inAnyRange reports whether pos falls in any of the ranges.
func inAnyRange(ranges []posRange, pos token.Pos) bool {
	for _, r := range ranges {
		if r.contains(pos) {
			return true
		}
	}
	return false
}
