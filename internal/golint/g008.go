package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// G008 goroutine-discipline: every go statement must be joined and
// must observe an in-scope context.
//
// Joined means the spawn participates in a completion protocol the
// spawning function can see: the closure calls Done on a sync.WaitGroup
// the function Waits on, or it sends on / closes a channel the function
// receives from. A goroutine outside such a protocol outlives its
// spawner silently — the serve layer's graceful shutdown and the
// engines' cancellation contract both assume that never happens.
//
// goroutineAllowlist (allowlist.go) vets the one shape the same-
// function analysis cannot see: a constructor that starts workers and
// hands the wg.Wait to a Close method. Listed functions skip only the
// join check; context discipline still applies.

func analyzerG008() *Analyzer {
	return &Analyzer{
		ID:       RuleGoroutineDiscipline,
		Name:     "goroutine-discipline",
		Doc:      "goroutine not joined or ignoring ctx",
		Severity: Warning,
		Run:      runG008,
	}
}

func runG008(p *Pass) []Finding {
	var out []Finding
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, fd := range funcDecls(file) {
			if fd.Body == nil {
				continue
			}
			inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				out = append(out, checkGoStmt(p, info, fd, g, stack)...)
				return true
			})
		}
	}
	return out
}

// checkGoStmt applies the two discipline checks to one go statement.
func checkGoStmt(p *Pass, info *types.Info, fd *ast.FuncDecl, g *ast.GoStmt, stack []ast.Node) []Finding {
	var out []Finding
	lit, isClosure := g.Call.Fun.(*ast.FuncLit)

	// Join: the spawn must signal completion in a way fd observes.
	// goroutineAllowlist waives this check (only this check) for
	// vetted constructor-shaped spawners whose join lives in another
	// method.
	if goroutineJoinAllowed(p.Pkg.Path, fd.Name.Name) {
		// fall through to the context check
	} else if !isClosure {
		// A named-function spawn hides its signalling (if any) in another
		// body the per-spawn analysis does not chase; the repo's shape is
		// a closure that owns its Done/send, so require it.
		out = append(out, p.finding(RuleGoroutineDiscipline, Warning, g.Pos(),
			"go statement spawns a named function, so no join is visible at the spawn site",
			"wrap the spawn in a closure that calls wg.Done or signals a channel the spawner waits on"))
	} else if !goroutineJoined(info, fd, g, lit) {
		out = append(out, p.finding(RuleGoroutineDiscipline, Warning, g.Pos(),
			fmt.Sprintf("goroutine spawned by %s is never joined", fd.Name.Name),
			"have the closure call wg.Done with a wg.Wait in the spawner, or send on a channel the spawner receives from"))
	}

	// Context: if a context.Context is in scope at the spawn, the
	// goroutine must observe it (reference it in its body or arguments)
	// so cancellation reaches the worker.
	if ctxs := contextsInScope(info, fd, stack, g.Pos()); len(ctxs) > 0 {
		if !refersToObject(info, g.Call, ctxs) {
			out = append(out, p.finding(RuleGoroutineDiscipline, Warning, g.Pos(),
				fmt.Sprintf("goroutine spawned by %s ignores the context in scope", fd.Name.Name),
				"pass ctx into the worker and check ctx.Err (or select on ctx.Done) so cancellation propagates"))
		}
	}
	return out
}

// goroutineJoined reports whether the closure participates in a join
// protocol with fd: WaitGroup Done/Wait, or channel send/close with a
// matching receive (including select comm clauses and range-over-
// channel) outside the closure.
func goroutineJoined(info *types.Info, fd *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit) bool {
	// WaitGroup protocol: Done in the closure, Wait in the function.
	for _, wg := range waitGroupCalls(info, lit.Body, "Done") {
		for _, waited := range waitGroupCalls(info, fd.Body, "Wait") {
			if wg == waited {
				return true
			}
		}
	}
	// Channel protocol: send/close in the closure, receive outside it.
	for _, ch := range channelSignals(info, lit.Body) {
		if receivesFrom(info, fd.Body, lit, ch) {
			return true
		}
	}
	return false
}

// waitGroupCalls returns the receiver texts of method calls on
// sync.WaitGroup values under root (nested closures excluded, so a
// Wait inside another goroutine does not count as the spawner's).
func waitGroupCalls(info *types.Info, root *ast.BlockStmt, method string) []string {
	var out []string
	inspectWithStack(root, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != root {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method || !isWaitGroupType(info.TypeOf(sel.X)) {
			return true
		}
		out = append(out, exprText(sel.X))
		return true
	})
	return out
}

// channelSignals returns the channel-expression texts the closure
// signals on: send statements and close calls.
func channelSignals(info *types.Info, body *ast.BlockStmt) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out = append(out, exprText(n.Chan))
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && isChanType(info.TypeOf(n.Args[0])) {
					out = append(out, exprText(n.Args[0]))
				}
			}
		}
		return true
	})
	return out
}

// receivesFrom reports whether fd's body — outside the spawned closure
// — receives from the channel spelled chText: a <-ch expression
// (anywhere, including select comm clauses) or a range over ch.
func receivesFrom(info *types.Info, body *ast.BlockStmt, spawned *ast.FuncLit, chText string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == ast.Node(spawned) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isChanType(info.TypeOf(n.X)) && exprText(n.X) == chText {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) && exprText(n.X) == chText {
				found = true
			}
		}
		return true
	})
	return found
}

// contextsInScope returns the context.Context variables visible at pos:
// parameters of fd, plus locals defined in an ancestor block by a
// statement that completes before pos. Contexts declared after the
// spawn (cmd/serve wires its signal context below the listener spawns)
// are correctly out of scope.
func contextsInScope(info *types.Info, fd *ast.FuncDecl, stack []ast.Node, pos token.Pos) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					out[obj] = true
				}
			}
		}
	}
	addDef := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil && isContextType(obj.Type()) {
			out[obj] = true
		}
	}
	for _, a := range stack {
		block, ok := a.(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, st := range block.List {
			if st.End() > pos {
				break
			}
			switch st := st.(type) {
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					for _, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							addDef(id)
						}
					}
				}
			case *ast.DeclStmt:
				if gd, ok := st.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, name := range vs.Names {
								addDef(name)
							}
						}
					}
				}
			}
		}
	}
	return out
}
