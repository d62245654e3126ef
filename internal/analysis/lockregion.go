package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockRegion is the interprocedural arm of the goroutine-write
// discipline: the narrow determinism check flags a `go func` literal
// that writes captured state directly, but a literal that calls a
// helper which does the writing slips through — the worker-pool and
// reconcile shapes in fleet, ctrlplane and sgd all delegate their
// slice writes. This pass summarises, for every module-local
// function, which of its parameters (receiver included) it writes and
// whether those writes land only at indices derived from
// index-parameters (the index-ordered merge shape) or anywhere
// (direct). Summaries propagate through calls to a fixpoint, so a
// write three frames down still surfaces. At every `go func` literal
// the pass then checks each call to a summarised writer:
//
//   - the written argument is goroutine-local (a literal parameter, a
//     per-goroutine chunk, a fresh composite) — safe;
//   - the callee writes only at indices fed by arguments that are
//     goroutine-local scalars — the sanctioned index-ordered merge,
//     safe;
//   - the callee (or the literal body) takes a mutex — serialised,
//     the race detector's domain — safe;
//   - otherwise the write is unsynchronised shared mutation and is
//     reported at the write site with the chain from the spawning
//     function down to the write.
//
// A //lint:allow lockregion directive at any chain frame waives the
// finding.
var LockRegion = &Analyzer{
	Name: "lockregion",
	Doc:  "goroutine-spawning shapes must reach captured state only through index-ordered merges or mutexes, checked through calls",
	Run:  runLockRegion,
	Wide: true,
}

// writeKind classifies how a function writes one of its parameters.
type writeKind int

const (
	wkNone    writeKind = iota
	wkIndexed           // element writes only, at indices derived from index-parameters
	wkDirect            // anything else: whole-value, map, local/constant index
)

// hop is one call step on the path from a summarised function down to
// the write it inherits.
type hop struct {
	callee *FuncInfo
	pos    token.Pos // call position in the caller
}

// paramWrite is the summary of writes to one combined parameter
// (receiver at index 0 when present).
type paramWrite struct {
	kind      writeKind
	idxParams map[int]bool // combined-param indices feeding the write indices
	pos       token.Pos    // representative (deepest) write site
	param     string       // the written parameter's name in the writing function
	hops      []hop        // calls from the summarised function to the write
}

type writeSummary struct {
	params []paramWrite
}

func runLockRegion(p *Pass) {
	prog := p.Prog
	buildWriteSummaries(prog)
	for _, fi := range prog.Funcs {
		checkGoSites(p, fi)
	}
}

// buildWriteSummaries computes every function's parameter-write
// summary: a direct scan of its own body, then call-edge propagation
// to a fixpoint.
func buildWriteSummaries(prog *Program) {
	for _, fi := range prog.Funcs {
		fi.summary = scanDirectWrites(fi)
	}
	// Propagate callee writes into callers until stable. Kinds only
	// ever escalate (none → indexed → direct) and index sets only
	// grow, so the loop terminates.
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Funcs {
			if propagateWrites(fi) {
				changed = true
			}
		}
	}
}

// combinedParams returns the receiver (if any) followed by the
// parameters, the index space summaries are keyed by.
func combinedParams(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// scanDirectWrites summarises the writes fi's own body performs on its
// parameters. A body that takes a mutex is treated as fully
// serialised — its writes don't count against callers.
func scanDirectWrites(fi *FuncInfo) *writeSummary {
	params := combinedParams(fi.Fn)
	sum := &writeSummary{params: make([]paramWrite, len(params))}
	if takesMutex(fi.Pkg.Info, fi.Decl.Body) {
		return sum
	}
	paramIdx := map[*types.Var]int{}
	for i, v := range params {
		paramIdx[v] = i
	}
	aliases := collectParamAliases(fi, paramIdx)
	info := fi.Pkg.Info
	record := func(target ast.Expr) {
		idx, indexExpr, wrapped := writeTarget(info, target, paramIdx, aliases)
		if idx < 0 {
			return
		}
		if !wrapped && indexExpr == nil {
			return // plain rebinding of the parameter variable: caller state untouched
		}
		kind, idxParams := classifyWriteIndex(info, indexExpr, paramIdx, aliases)
		sum.merge(idx, paramWrite{
			kind:      kind,
			idxParams: idxParams,
			pos:       target.Pos(),
			param:     params[idx].Name(),
		})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return sum
}

// writeTarget roots a write target at a combined parameter. It
// returns the parameter index (-1 if the target is not
// parameter-rooted), the innermost index expression for element
// writes (nil for whole-value writes), and whether the path crossed a
// selector or dereference. Writes to value-typed parameters mutate
// the callee's copy only and root nowhere.
func writeTarget(info *types.Info, target ast.Expr, paramIdx map[*types.Var]int, aliases map[*types.Var]int) (int, ast.Expr, bool) {
	e := unparen(target)
	var indexExpr ast.Expr
	wrapped := false
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e, wrapped = unparen(t.X), true
			continue
		case *ast.StarExpr:
			e, wrapped = unparen(t.X), true
			continue
		case *ast.IndexExpr:
			if indexExpr == nil {
				indexExpr = t.Index
				if _, isMap := info.TypeOf(t.X).Underlying().(*types.Map); isMap {
					indexExpr = nil // map writes never form an index-ordered merge
					wrapped = true
				}
			} else {
				wrapped = true // multi-level indexing: treat conservatively below
			}
			e = unparen(t.X)
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return -1, nil, false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return -1, nil, false
	}
	idx, isParam := paramIdx[v]
	if !isParam {
		idx, isParam = aliases[v]
		if !isParam {
			return -1, nil, false
		}
	}
	if !sharedMutationType(v.Type()) {
		return -1, nil, false
	}
	return idx, indexExpr, wrapped
}

// sharedMutationType reports whether writing through a value of this
// type reaches the caller's state: pointers, slices, maps and
// pointer-receivers do; plain value copies don't.
func sharedMutationType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// collectParamAliases finds local variables that view a parameter's
// storage — `qi := q[a:b]`, `row := &m.cells` — so writes through the
// alias count against the parameter. Resolved to a fixpoint so
// aliases of aliases land too.
func collectParamAliases(fi *FuncInfo, paramIdx map[*types.Var]int) map[*types.Var]int {
	info := fi.Pkg.Info
	aliases := map[*types.Var]int{}
	rootOf := func(e ast.Expr) int {
		for {
			switch t := unparen(e).(type) {
			case *ast.SliceExpr:
				e = t.X
			case *ast.IndexExpr:
				e = t.X
			case *ast.SelectorExpr:
				e = t.X
			case *ast.StarExpr:
				e = t.X
			case *ast.UnaryExpr:
				if t.Op != token.AND {
					return -1
				}
				e = t.X
			case *ast.Ident:
				obj := info.Uses[t]
				if obj == nil {
					obj = info.Defs[t]
				}
				if v, ok := obj.(*types.Var); ok {
					if idx, ok := paramIdx[v]; ok {
						return idx
					}
					if idx, ok := aliases[v]; ok {
						return idx
					}
				}
				return -1
			default:
				return -1
			}
		}
	}
	for pass := 0; pass < 4; pass++ {
		grew := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					if v, ok = info.Uses[id].(*types.Var); !ok {
						continue
					}
				}
				if _, done := aliases[v]; done {
					continue
				}
				if _, isParam := paramIdx[v]; isParam {
					continue
				}
				if !sharedMutationType(v.Type()) {
					continue
				}
				if idx := rootOf(as.Rhs[i]); idx >= 0 {
					aliases[v] = idx
					grew = true
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return aliases
}

// classifyWriteIndex decides whether an element write is
// index-ordered: the index must mention at least one parameter and
// nothing but parameters and constants. A constant-only index is the
// same cell on every call — direct. A nil index (whole-value or map
// write) is direct.
func classifyWriteIndex(info *types.Info, indexExpr ast.Expr, paramIdx map[*types.Var]int, aliases map[*types.Var]int) (writeKind, map[int]bool) {
	if indexExpr == nil {
		return wkDirect, nil
	}
	idxParams := map[int]bool{}
	direct := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if direct {
			return
		}
		switch e := unparen(e).(type) {
		case *ast.Ident:
			switch obj := firstNonNil(info.Uses[e], info.Defs[e]).(type) {
			case *types.Const:
			case *types.Var:
				if idx, ok := paramIdx[obj]; ok {
					idxParams[idx] = true
				} else {
					direct = true
				}
			default:
				direct = true
			}
		case *ast.BasicLit:
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.SelectorExpr:
			walk(e.X)
		default:
			direct = true
		}
	}
	walk(indexExpr)
	if direct || len(idxParams) == 0 {
		return wkDirect, nil
	}
	return wkIndexed, idxParams
}

func firstNonNil(objs ...types.Object) types.Object {
	for _, o := range objs {
		if o != nil {
			return o
		}
	}
	return nil
}

// merge folds one observed write into the summary slot, escalating
// the kind and unioning index sets. Reports whether the slot changed.
func (s *writeSummary) merge(idx int, w paramWrite) bool {
	cur := &s.params[idx]
	if w.kind > cur.kind {
		*cur = w
		if cur.idxParams == nil && w.kind == wkIndexed {
			cur.idxParams = map[int]bool{}
		}
		return true
	}
	if w.kind == cur.kind && w.kind == wkIndexed {
		changed := false
		for k := range w.idxParams {
			if !cur.idxParams[k] {
				cur.idxParams[k] = true
				changed = true
			}
		}
		return changed
	}
	return false
}

// propagateWrites folds callee summaries into fi's: a call that hands
// a parameter of fi to a parameter the callee writes makes fi a
// writer of that parameter too. Reports whether the summary changed.
func propagateWrites(fi *FuncInfo) bool {
	info := fi.Pkg.Info
	paramIdx := map[*types.Var]int{}
	for i, v := range combinedParams(fi.Fn) {
		paramIdx[v] = i
	}
	aliases := collectParamAliases(fi, paramIdx)
	changed := false
	for _, cs := range fi.Calls {
		for _, callee := range cs.Callees {
			if callee == fi || callee.summary == nil {
				continue
			}
			for j := range callee.summary.params {
				w := callee.summary.params[j]
				if w.kind == wkNone {
					continue
				}
				arg := combinedArg(cs.Call, callee, j)
				if arg == nil {
					continue
				}
				idx, ok := argParam(info, arg, paramIdx, aliases)
				if !ok {
					continue
				}
				nw := paramWrite{
					kind:  w.kind,
					pos:   w.pos,
					param: w.param,
					hops:  append([]hop{{callee, cs.Call.Pos()}}, w.hops...),
				}
				if w.kind == wkIndexed {
					nw.idxParams = map[int]bool{}
					for k := range w.idxParams {
						idxArg := combinedArg(cs.Call, callee, k)
						ci, isConst := indexArgParam(info, idxArg, paramIdx)
						switch {
						case isConst:
							// constant fed from this frame: the cell still
							// varies per callee call only if other index
							// params do; keep indexed with the rest.
						case ci >= 0:
							nw.idxParams[ci] = true
						default:
							nw.kind = wkDirect
							nw.idxParams = nil
						}
						if nw.kind == wkDirect {
							break
						}
					}
					if nw.kind == wkIndexed && len(nw.idxParams) == 0 {
						nw.kind = wkDirect // every index pinned to constants: one shared cell
					}
				}
				if fi.summary.merge(idx, nw) {
					changed = true
				}
			}
		}
	}
	return changed
}

// combinedArg returns the call-site expression bound to the callee's
// combined parameter j: the receiver expression for j == 0 of a
// method, else the positional argument. nil when it cannot be mapped
// (method values, variadic overflow).
func combinedArg(call *ast.CallExpr, callee *FuncInfo, j int) ast.Expr {
	sig := callee.Fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if j == 0 {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		j--
	}
	if sig.Variadic() && j >= sig.Params().Len()-1 {
		return nil
	}
	if j < len(call.Args) {
		return call.Args[j]
	}
	return nil
}

// argParam roots an argument at one of the caller's parameters,
// through slicing, indexing, field selection and address-taking.
func argParam(info *types.Info, arg ast.Expr, paramIdx map[*types.Var]int, aliases map[*types.Var]int) (int, bool) {
	e := arg
	for {
		switch t := unparen(e).(type) {
		case *ast.SliceExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return -1, false
			}
			e = t.X
		case *ast.Ident:
			obj := info.Uses[t]
			if obj == nil {
				obj = info.Defs[t]
			}
			if v, ok := obj.(*types.Var); ok {
				if idx, ok := paramIdx[v]; ok {
					return idx, true
				}
				if idx, ok := aliases[v]; ok {
					return idx, true
				}
			}
			return -1, false
		default:
			return -1, false
		}
	}
}

// indexArgParam classifies a scalar index argument: a constant, a
// caller parameter (returned by index), or neither.
func indexArgParam(info *types.Info, arg ast.Expr, paramIdx map[*types.Var]int) (int, bool) {
	if arg == nil {
		return -1, false
	}
	switch e := unparen(arg).(type) {
	case *ast.BasicLit:
		return -1, true
	case *ast.Ident:
		switch obj := firstNonNil(info.Uses[e], info.Defs[e]).(type) {
		case *types.Const:
			return -1, true
		case *types.Var:
			if idx, ok := paramIdx[obj]; ok {
				return idx, false
			}
		}
	}
	return -1, false
}

// checkGoSites inspects every `go func` literal in fi for calls that
// reach shared state through a summarised writer.
func checkGoSites(p *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	prog := p.Prog
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok || takesMutex(info, lit.Body) {
			return true
		}
		goFrame := Frame{Func: fi.Name, Pos: prog.Fset.Position(g.Pos())}
		for _, cs := range fi.Calls {
			if cs.Call.Pos() < lit.Body.Pos() || cs.Call.Pos() > lit.Body.End() {
				continue
			}
			for _, callee := range cs.Callees {
				checkGoCall(p, fi, lit, goFrame, cs, callee)
			}
		}
		return true
	})
}

// checkGoCall vets one call inside a go-literal against the callee's
// write summary.
func checkGoCall(p *Pass, fi *FuncInfo, lit *ast.FuncLit, goFrame Frame, cs *CallSite, callee *FuncInfo) {
	if callee.summary == nil {
		return
	}
	info := fi.Pkg.Info
	prog := p.Prog
	for j := range callee.summary.params {
		w := callee.summary.params[j]
		if w.kind == wkNone {
			continue
		}
		arg := combinedArg(cs.Call, callee, j)
		if arg == nil || localValued(info, lit, arg) {
			continue
		}
		chain := []Frame{goFrame, {Func: callee.Name, Pos: prog.Fset.Position(cs.Call.Pos())}}
		writer := callee
		for _, h := range w.hops {
			chain = append(chain, Frame{Func: h.callee.Name, Pos: prog.Fset.Position(h.pos)})
			writer = h.callee
		}
		if w.kind == wkDirect {
			p.ReportChain(w.pos, chain, "%s writes %s, shared across goroutines spawned in %s, without the index-ordered merge or a mutex; give each goroutine its own state or take a lock",
				writer.Name, w.param, fi.Name)
			continue
		}
		// Index-ordered writes: every index argument must be a
		// goroutine-local scalar for the cells to be disjoint.
		for _, k := range sortedKeys(w.idxParams) {
			idxArg := combinedArg(cs.Call, callee, k)
			if idxArg != nil && indexIsGoroutineLocal(info, lit, idxArg) && mentionsLocalVar(info, lit, idxArg) {
				continue
			}
			p.ReportChain(w.pos, chain, "%s writes %s at an index that is not goroutine-local when spawned in %s; every goroutine must own distinct pre-sized cells (index-ordered merge)",
				writer.Name, w.param, fi.Name)
			break
		}
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// localValued reports whether evaluating e inside the go-literal
// yields a per-goroutine value at lint precision: literal-local
// variables, element reads at literal-local indices (each goroutine
// reads a different cell), per-goroutine chunks, and freshly
// constructed values.
func localValued(info *types.Info, lit *ast.FuncLit, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return goroutineLocal(info, lit, e)
	case *ast.SelectorExpr:
		return localValued(info, lit, e.X)
	case *ast.StarExpr:
		return localValued(info, lit, e.X)
	case *ast.IndexExpr:
		return mentionsLocalVar(info, lit, e.Index)
	case *ast.SliceExpr:
		return mentionsLocalVar(info, lit, e.Low) || mentionsLocalVar(info, lit, e.High)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return localValued(info, lit, e.X)
		}
		return true
	case *ast.CallExpr, *ast.CompositeLit, *ast.BasicLit:
		return true // a fresh value per evaluation
	}
	return false
}

// mentionsLocalVar reports whether e mentions at least one variable
// declared inside the literal — the distinctness driver that makes an
// index or chunk per-goroutine.
func mentionsLocalVar(info *types.Info, lit *ast.FuncLit, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
				found = true
			}
		}
		return !found
	})
	return found
}
