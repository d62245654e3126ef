package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errdrop flags silently discarded error returns from module-local
// functions — the call sites that became a risk surface when the
// harness's run functions started returning errors. A
// dropped error there means an experiment silently reports a partial
// or nil result. Stdlib calls are out of scope (fmt.Println's error is
// noise); our own API's errors are not — with one targeted exception:
// in the report-writing commands under cmd/*, a `defer w.Close()` or
// `defer w.Flush()` on a handle opened for writing (os.Create,
// os.OpenFile, a New*Writer constructor) discards exactly the error
// that says the report bytes never reached disk, so those are flagged
// even though the methods are foreign.
var Errdrop = &Analyzer{
	Name: "errdrop",
	Doc:  "no ignored error results from module-local functions, nor deferred Close/Flush on writers in cmd/*",
	Run:  runErrdrop,
}

func runErrdrop(p *Pass) {
	info := p.Pkg.Info
	mod := p.Pkg.ModPath
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(n.X).(*ast.CallExpr); ok {
					checkDiscardedCall(p, info, mod, call)
				}
			case *ast.GoStmt:
				checkDiscardedCall(p, info, mod, n.Call)
			case *ast.DeferStmt:
				checkDiscardedCall(p, info, mod, n.Call)
			case *ast.AssignStmt:
				checkBlankErrAssign(p, info, mod, n)
			}
			return true
		})
	}
	if hasPathSegment(p.Pkg.Path, "cmd") && !p.Pkg.ForTest {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkDeferredWriterClose(p, fd)
				}
			}
		}
	}
}

// writerOrigin reports whether a call opens a handle for writing,
// returning a short description of the opener ("" otherwise).
func writerOrigin(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	path, name := pkgPath(fn), fn.Name()
	switch {
	case path == "os" && (name == "Create" || name == "OpenFile"):
		return "os." + name
	case strings.HasPrefix(name, "NewWriter"):
		return pathBase(path) + "." + name
	}
	return ""
}

// checkDeferredWriterClose flags `defer w.Close()` and `defer
// w.Flush()` when w was opened for writing in the same function and
// the method returns an error: the deferred call is the last chance
// to learn that the kernel never accepted the report bytes.
func checkDeferredWriterClose(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	writers := map[*types.Var]string{} // handle variable → opener
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		origin := writerOrigin(info, call)
		if origin == "" || len(as.Lhs) == 0 {
			return true
		}
		if id, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if v, ok := obj.(*types.Var); ok {
				writers[v] = origin
			}
		}
		return true
	})
	if len(writers) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := unparen(def.Call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Close" && name != "Flush" {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || len(errResultIndices(fn)) == 0 {
			return true
		}
		id, ok := unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		origin, isWriter := writers[v]
		if !isWriter {
			return true
		}
		p.Reportf(def.Pos(), "deferred %s.%s on a writer (%s) discards its error; a failed flush silently truncates the report — close explicitly and propagate", id.Name, name, origin)
		return true
	})
}

// moduleCallee resolves call to a module-local function or method, or
// nil when the callee is foreign, a builtin or a func-typed value.
func moduleCallee(info *types.Info, mod string, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || !isModuleLocal(pkgPath(fn), mod) {
		return nil
	}
	return fn
}

// errResultIndices returns the positions of error-typed results.
func errResultIndices(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// checkDiscardedCall flags statements that throw away every result of
// an error-returning module call: bare call statements, go and defer.
func checkDiscardedCall(p *Pass, info *types.Info, mod string, call *ast.CallExpr) {
	fn := moduleCallee(info, mod, call)
	if fn == nil || len(errResultIndices(fn)) == 0 {
		return
	}
	p.Reportf(call.Pos(), "error result of %s.%s is discarded; handle or propagate it", fn.Pkg().Name(), fn.Name())
}

// checkBlankErrAssign flags `x, _ := f()` (and `_ = f()`) when the
// blank identifier lands on an error result of a module call.
func checkBlankErrAssign(p *Pass, info *types.Info, mod string, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := moduleCallee(info, mod, call)
	if fn == nil {
		return
	}
	errIdx := errResultIndices(fn)
	for _, i := range errIdx {
		if i >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			p.Reportf(as.Lhs[i].Pos(), "error result of %s.%s assigned to _; handle or propagate it", fn.Pkg().Name(), fn.Name())
		}
	}
}
