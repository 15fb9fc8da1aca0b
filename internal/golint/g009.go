package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// G009 lock-discipline: every Lock has a matching Unlock in the same
// function, and no channel operation or engine call happens while a
// mutex is syntactically held.
//
// The held region is computed per function frame by lockHeldRanges
// (flow.go): conservative by construction, it ends at the first
// statement that could release the lock, so the single-flight shape in
// the serve cache — lock, consult the map, unlock inside the hit
// branch, then wait on a channel — is recognized as lock-free at the
// wait. What the rule forbids is the deadlock-and-latency class:
// blocking on a channel, or running a whole engine, while every other
// worker queues behind the mutex.

func analyzerG009() *Analyzer {
	return &Analyzer{
		ID:       RuleLockDiscipline,
		Name:     "lock-discipline",
		Doc:      "unpaired lock, or channel op or engine call under a mutex",
		Severity: Warning,
		Run:      runG009,
	}
}

func runG009(p *Pass) []Finding {
	var out []Finding
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, fd := range funcDecls(file) {
			if fd.Body == nil {
				continue
			}
			out = append(out, checkLockPairing(p, info, fd)...)
			for _, frame := range frames(fd) {
				out = append(out, checkHeldRegions(p, info, frame)...)
			}
		}
	}
	return out
}

// frames returns the function's own body plus the body of every
// function literal under it — each analyzed as its own lock frame.
func frames(fd *ast.FuncDecl) []*ast.BlockStmt {
	out := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// checkLockPairing flags Lock/RLock calls with no matching unlock
// anywhere in the function (deferred or not). The whole declaration is
// one scope here: a closure may legitimately release its spawner's
// lock, but a lock nobody in the function releases is a leak.
func checkLockPairing(p *Pass, info *types.Info, fd *ast.FuncDecl) []Finding {
	var out []Finding
	unlockOf := map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := mutexCallTarget(info, call)
		if recv == "" || (method != "Lock" && method != "RLock") {
			return true
		}
		if !anyMutexCall(info, fd.Body, recv, unlockOf[method]) {
			out = append(out, p.finding(RuleLockDiscipline, Warning, call.Pos(),
				fmt.Sprintf("%s.%s() has no matching %s in %s", recv, method, unlockOf[method], fd.Name.Name),
				"release the lock on every path, conventionally with defer "+recv+"."+unlockOf[method]+"()"))
		}
		return true
	})
	return out
}

// anyMutexCall reports whether a call recv.method appears anywhere
// under root, nested closures included — pairing treats the whole
// declaration as one scope, since a worker closure may legitimately be
// the one that releases its spawner's lock.
func anyMutexCall(info *types.Info, root ast.Node, recv, method string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if r, m := mutexCallTarget(info, call); r == recv && m == method {
				found = true
			}
		}
		return true
	})
	return found
}

// checkHeldRegions flags channel operations and engine calls inside the
// frame's lock-held ranges.
func checkHeldRegions(p *Pass, info *types.Info, frame *ast.BlockStmt) []Finding {
	held := lockHeldRanges(info, frame)
	if len(held) == 0 {
		return nil
	}
	var out []Finding
	flag := func(pos token.Pos, what string) {
		out = append(out, p.finding(RuleLockDiscipline, Warning, pos,
			what+" while a mutex is held",
			"shrink the critical section: release the lock before blocking or running engine work"))
	}
	ast.Inspect(frame, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != frame {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if inAnyRange(held, n.Pos()) {
				flag(n.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && inAnyRange(held, n.Pos()) {
				flag(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if inAnyRange(held, n.Pos()) {
				flag(n.Pos(), "select")
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) && inAnyRange(held, n.Pos()) {
				flag(n.Pos(), "range over a channel")
			}
		case *ast.CallExpr:
			callee := staticCallee(info, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if isEngineCallPackage(callee.Pkg().Path()) && inAnyRange(held, n.Pos()) {
				flag(n.Pos(), "call into engine package "+callee.Pkg().Name())
			}
		}
		return true
	})
	return out
}
