package golint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzerG003 enforces context discipline. Every cancellable engine
// operation takes a context.Context first so a request can be cancelled
// mid-computation; that guarantee evaporates the moment a function
// receives a context and then drops it or spawns a fresh root.
//
// Module-wide checks (any package):
//
//   - a function or function literal with a context.Context parameter
//     that never uses it (rename the parameter to _ only when an
//     interface forces the signature — that is a visible, greppable
//     decision); literals matter because the serve endpoints hand their
//     engine calls to the request path as run closures
//   - a function with a context.Context parameter that still calls
//     context.Background()/TODO(), severing the cancellation chain
//
// Engine-package check (the engineContextPackages table): a
// context.Background()/TODO() call in a function without a context
// parameter is only legal in the compat-wrapper shape — a single return
// statement forwarding into the ctx-first implementation. The shape
// exists for the context-free names the benchmark module still calls.
func analyzerG003() *Analyzer {
	return &Analyzer{
		ID:       RuleContextDiscipline,
		Name:     "context-discipline",
		Doc:      "dropped or shadowed context.Context arguments; fresh root contexts outside compat wrappers",
		Severity: Warning,
		Run:      runG003,
	}
}

func runG003(p *Pass) []Finding {
	var out []Finding
	info := p.Pkg.Info
	isEngine := pathMatchesAny(p.Pkg.Path, engineContextPackages)
	isMainPkg := p.Pkg.Types.Name() == "main"
	for _, file := range p.Pkg.Files {
		for _, fd := range funcDecls(file) {
			if fd.Body == nil {
				continue
			}
			ctxObj, ctxName := contextParam(info, fd.Type)
			if ctxObj != nil && !usesObject(info, fd.Body, ctxObj) {
				out = append(out, p.finding(RuleContextDiscipline, Warning, fd.Pos(),
					fmt.Sprintf("%s receives context.Context %q but never uses it", fd.Name.Name, ctxName),
					"thread the context into the calls below, or name the parameter _ if an interface forces the signature"))
			}
			inMain := isMainPkg && fd.Recv == nil && fd.Name.Name == "main"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name := pkgQualified(info, call.Fun)
				if pkg != "context" || (name != "Background" && name != "TODO") {
					return true
				}
				switch {
				case ctxObj != nil:
					out = append(out, p.finding(RuleContextDiscipline, Warning, call.Pos(),
						fmt.Sprintf("%s creates context.%s despite receiving %q: cancellation is severed", fd.Name.Name, name, ctxName),
						"derive from the incoming context instead"))
				case isEngine && !inMain && !isCompatWrapper(fd):
					out = append(out, p.finding(RuleContextDiscipline, Warning, call.Pos(),
						fmt.Sprintf("context.%s in engine package outside a compat wrapper", name),
						"accept a context.Context parameter, or make this a single-return wrapper over the ctx-first function"))
				}
				return true
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if obj, name := contextParam(info, lit.Type); obj != nil && !usesObject(info, lit.Body, obj) {
				out = append(out, p.finding(RuleContextDiscipline, Warning, lit.Pos(),
					fmt.Sprintf("function literal receives context.Context %q but never uses it", name),
					"thread the context into the calls below, or name the parameter _ if an interface forces the signature"))
			}
			return true
		})
	}
	return out
}

// contextParam returns the object and name of the first
// context.Context parameter of a function signature, or nil. A
// parameter named _ is an explicit opt-out and is not returned.
func contextParam(info *types.Info, ft *ast.FuncType) (types.Object, string) {
	if ft.Params == nil {
		return nil, ""
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil {
				return obj, name.Name
			}
		}
	}
	return nil, ""
}

// usesObject reports whether any identifier under n resolves to obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	return refersToObject(info, n, map[types.Object]bool{obj: true})
}

// isCompatWrapper reports whether the function body is exactly one
// return statement — the sanctioned shape for a context-free export
// forwarding into its ctx-first implementation.
func isCompatWrapper(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	_, ok := fd.Body.List[0].(*ast.ReturnStmt)
	return ok
}
