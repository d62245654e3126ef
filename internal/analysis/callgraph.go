package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural engine behind the wide analyzers:
// a module-local call graph built once per RunAnalyzers and shared by
// every pass. Resolution is deliberately conservative in the
// directions that matter for soundness of the invariants:
//
//   - static calls (functions and concrete methods) resolve through
//     go/types uses, including generic instantiations (unwrapped to
//     their origin declaration);
//   - interface method calls resolve to the matching method of every
//     module-local named type assignable to the interface — an
//     over-approximation of dynamic dispatch that never misses a
//     local implementation;
//   - a function mentioned outside call position (stored in a field,
//     passed as a value) is recorded as a reference edge: whoever
//     holds the value may call it, so transitive passes follow it.
//
// Calls into the standard library or other modules are not edges: the
// leaf calls that matter (math.Log, make, append) are detected in
// whatever module-local frame makes them.

// A Program is the module-local call graph over the non-test packages.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	Funcs   []*FuncInfo // every declared function/method with a body, in source order
	ByObj   map[*types.Func]*FuncInfo

	named     []*types.Named // module-local named types, for interface dispatch
	implCache map[implKey][]*FuncInfo
}

type implKey struct {
	iface  *types.Interface
	method string
}

// A FuncInfo is one declared function or method plus its outgoing
// edges.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Name string // display name: pkg.Func or pkg.(*T).Method
	Hot  bool   // doc comment carries //hot:path

	Calls []*CallSite
	Refs  []FuncRef // functions mentioned outside call position
}

// A CallSite is one call expression and the module-local functions it
// may dispatch to.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncInfo
	Iface   bool // resolved through an interface method
}

// A FuncRef marks a function used as a value rather than called.
type FuncRef struct {
	Pos    token.Pos
	Target *FuncInfo
}

// BuildProgram indexes every function declared in the non-test
// packages and resolves their outgoing edges. The packages were
// type-checked once by the loader's compile cache, so building the
// graph adds only AST walks — no re-checking.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		ByObj:     map[*types.Func]*FuncInfo{},
		implCache: map[implKey][]*FuncInfo{},
	}
	for _, pkg := range pkgs {
		if pkg.ForTest {
			continue
		}
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
			prog.ModPath = pkg.ModPath
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Fn:   fn,
					Decl: fd,
					Pkg:  pkg,
					Name: funcDisplayName(fn),
					Hot:  hotMarked(fd),
				}
				prog.Funcs = append(prog.Funcs, fi)
				prog.ByObj[fn] = fi
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				prog.named = append(prog.named, named)
			}
		}
	}
	sort.Slice(prog.Funcs, func(i, j int) bool {
		return prog.Funcs[i].Decl.Pos() < prog.Funcs[j].Decl.Pos()
	})
	for _, fi := range prog.Funcs {
		prog.buildEdges(fi)
	}
	return prog
}

// buildEdges walks one function body, resolving every call and every
// function-value mention to module-local targets.
func (prog *Program) buildEdges(fi *FuncInfo) {
	pkg := fi.Pkg
	inCallPos := map[*ast.Ident]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		targets, iface, id := prog.resolveCall(pkg, call)
		if id != nil {
			inCallPos[id] = true
		}
		if len(targets) > 0 {
			fi.Calls = append(fi.Calls, &CallSite{Call: call, Callees: targets, Iface: iface})
		}
		return true
	})
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || inCallPos[id] {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if target := prog.ByObj[fn.Origin()]; target != nil {
			fi.Refs = append(fi.Refs, FuncRef{Pos: id.Pos(), Target: target})
		}
		return true
	})
}

// resolveCall maps one call expression to its possible module-local
// targets. It returns the resolved identifier (so the value-reference
// walk can skip it) even when the target is not module-local.
func (prog *Program) resolveCall(pkg *Package, call *ast.CallExpr) (targets []*FuncInfo, iface bool, callee *ast.Ident) {
	fun := unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](x) calls f.
	for {
		if ix, ok := fun.(*ast.IndexExpr); ok {
			fun = unparen(ix.X)
			continue
		}
		if ix, ok := fun.(*ast.IndexListExpr); ok {
			fun = unparen(ix.X)
			continue
		}
		break
	}
	var id *ast.Ident
	var sel *ast.SelectorExpr
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id, sel = f.Sel, f
	default:
		return nil, false, nil
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil, false, id
	}
	if sel != nil {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if it, ok := s.Recv().Underlying().(*types.Interface); ok {
				return prog.implsOf(it, fn.Name(), fn.Pkg()), true, id
			}
		}
	}
	if target := prog.ByObj[fn.Origin()]; target != nil {
		return []*FuncInfo{target}, false, id
	}
	return nil, false, id
}

// implsOf returns the named method on every module-local type
// assignable to the interface — the conservative resolution of a
// dynamic dispatch through iface.method.
func (prog *Program) implsOf(iface *types.Interface, method string, from *types.Package) []*FuncInfo {
	if iface.NumMethods() == 0 {
		return nil
	}
	key := implKey{iface, method}
	if res, ok := prog.implCache[key]; ok {
		return res
	}
	var res []*FuncInfo
	for _, named := range prog.named {
		var recv types.Type
		switch {
		case types.Implements(named, iface):
			recv = named
		case types.Implements(types.NewPointer(named), iface):
			recv = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, from, method)
		if mfn, ok := obj.(*types.Func); ok {
			if fi := prog.ByObj[mfn.Origin()]; fi != nil {
				res = append(res, fi)
			}
		}
	}
	prog.implCache[key] = res
	return res
}

// succ is one outgoing edge: the target function and the call or
// reference position that enters it.
type succ struct {
	target *FuncInfo
	pos    token.Pos
}

// succs returns fi's distinct outgoing targets in source order:
// resolved callees first, then (when withRefs is set) functions
// mentioned as values — whoever receives such a value may call it, so
// transitive passes follow the reference conservatively.
func (prog *Program) succs(fi *FuncInfo, withRefs bool) []succ {
	seen := map[*FuncInfo]bool{}
	var out []succ
	for _, cs := range fi.Calls {
		for _, t := range cs.Callees {
			if t == fi || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, succ{t, cs.Call.Pos()})
		}
	}
	if withRefs {
		for _, r := range fi.Refs {
			if r.Target == fi || seen[r.Target] {
				continue
			}
			seen[r.Target] = true
			out = append(out, succ{r.Target, r.Pos})
		}
	}
	return out
}

// funcDisplayName renders pkg.Func, pkg.(*T).Method or pkg.T.Method —
// the frame names chain diagnostics are written in.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = recvDisplay(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

func recvDisplay(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		return "(*" + typeBaseName(ptr.Elem()) + ")"
	}
	return typeBaseName(t)
}

func typeBaseName(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	default:
		return t.String()
	}
}
