package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the byte-stable-report contract: experiment
// output must be a pure function of the seed. It forbids wall-clock
// reads (time.Now / time.Since / time.Until), use of math/rand's
// global source (whose sequences changed across Go releases),
// execution-width reads (runtime.GOMAXPROCS / runtime.NumCPU) outside
// tests and main packages, which may pin or record the width,
// iteration over a map when the loop body is order-sensitive —
// appending to a slice without sorting it afterwards, emitting output,
// or accumulating floats or strings, all of which leak Go's randomized
// map order into results — and unsynchronised writes to captured
// slices or maps from inside a `go` statement. The one sanctioned
// goroutine write is the index-ordered merge (internal/fleet's
// pattern): each goroutine writes only cells of a pre-sized slice
// addressed by goroutine-local indices, so the result is independent
// of scheduling.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, global math/rand, execution-width reads, order-sensitive map iteration and shared writes from goroutines",
	Run:  runDeterminism,
}

// wallClockFuncs are the time functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seedflowFuncs are the math/rand constructors and seeders owned by
// the seedflow check; determinism skips them to avoid double reports.
var seedflowFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "Seed": true,
}

func runDeterminism(p *Pass) {
	info := p.Pkg.Info
	library := !p.Pkg.ForTest && p.Pkg.Types.Name() != "main"
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil || hasReceiver(fn) {
					return true
				}
				switch path := pkgPath(fn); {
				case path == "time" && wallClockFuncs[fn.Name()]:
					p.Reportf(n.Pos(), "call to time.%s reads the wall clock; seeded reports must not depend on host time", fn.Name())
				case (path == "math/rand" || path == "math/rand/v2") && !seedflowFuncs[fn.Name()]:
					p.Reportf(n.Pos(), "%s.%s uses the global math/rand source; draw from internal/rng instead", pathBase(path), fn.Name())
				case path == "runtime" && (fn.Name() == "GOMAXPROCS" || fn.Name() == "NumCPU") && library:
					p.Reportf(n.Pos(), "call to runtime.%s reads the host's execution width; seeded reports must not depend on it", fn.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(p, n)
			case *ast.GoStmt:
				checkGoroutineWrites(p, n)
			}
			return true
		})
	}
}

// checkGoroutineWrites flags writes to captured slices and maps from
// inside a `go func` literal: the scheduling order of goroutines is
// not a function of the seed, so any shared mutation they race on
// leaks nondeterminism into results. Three shapes are exempt:
//
//   - the index-ordered merge — a write to a captured slice whose
//     index is built only from goroutine-local variables (each
//     goroutine owns distinct pre-sized cells, as in fleet's stepAll);
//   - bodies that take a mutex (Lock/RLock) — serialised, so the race
//     detector's business rather than this check's;
//   - //lint:allow determinism <reason>, as everywhere else.
func checkGoroutineWrites(p *Pass, g *ast.GoStmt) {
	lit, ok := unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	if takesMutex(p.Pkg.Info, lit.Body) {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // nested go statements get their own visit
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkGoroutineTarget(p, lit, lhs, n.Rhs)
			}
		case *ast.IncDecStmt:
			checkGoroutineTarget(p, lit, n.X, nil)
		}
		return true
	})
}

// checkGoroutineTarget reports one write target inside a go-func
// literal if it mutates a captured slice or map.
func checkGoroutineTarget(p *Pass, lit *ast.FuncLit, target ast.Expr, rhs []ast.Expr) {
	info := p.Pkg.Info
	// Strip field selectors and derefs: `pop[i].fit = v` writes into
	// the slice pop, `(*s)[k] = v` writes through s.
	e := unparen(target)
	for {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = unparen(sel.X)
			continue
		}
		if star, ok := e.(*ast.StarExpr); ok {
			e = unparen(star.X)
			continue
		}
		break
	}
	switch e := e.(type) {
	case *ast.IndexExpr:
		root := rootIdent(e.X)
		if root == nil || goroutineLocal(info, lit, root) {
			return
		}
		switch info.TypeOf(e.X).Underlying().(type) {
		case *types.Map:
			p.Reportf(target.Pos(), "write to captured map %s inside a go statement; merge per-goroutine results in index order instead", root.Name)
		case *types.Slice, *types.Array:
			if !indexIsGoroutineLocal(info, lit, e.Index) {
				p.Reportf(target.Pos(), "write to captured slice %s with a shared index inside a go statement; give each goroutine its own pre-sized cells (index-ordered merge)", root.Name)
			}
		}
	case *ast.Ident:
		if e.Name == "_" || goroutineLocal(info, lit, e) {
			return
		}
		switch info.TypeOf(e).Underlying().(type) {
		case *types.Map:
			p.Reportf(target.Pos(), "assignment to captured map %s inside a go statement; merge per-goroutine results in index order instead", e.Name)
		case *types.Slice:
			if len(rhs) == 1 {
				if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
					p.Reportf(target.Pos(), "append to captured slice %s inside a go statement; collect per goroutine and merge in index order instead", e.Name)
					return
				}
			}
			p.Reportf(target.Pos(), "assignment to captured slice %s inside a go statement; merge per-goroutine results in index order instead", e.Name)
		}
	}
}

// rootIdent walks selector/index/deref chains to the base identifier:
// s, m.recs and (*p).cells[i] all root at their leftmost name.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// goroutineLocal reports whether id resolves to a variable declared
// inside the func literal (including its parameters) — a value no
// other goroutine can touch.
func goroutineLocal(info *types.Info, lit *ast.FuncLit, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() >= lit.Pos() && v.Pos() <= lit.End()
}

// indexIsGoroutineLocal reports whether every variable mentioned in a
// slice-index expression is goroutine-local, so concurrent writers
// cannot collide on a cell. Field selectors contribute only their
// base (`e.i` is local when e is); literals contribute nothing.
func indexIsGoroutineLocal(info *types.Info, lit *ast.FuncLit, idx ast.Expr) bool {
	ok := true
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if !ok {
			return
		}
		switch e := unparen(e).(type) {
		case *ast.Ident:
			if v, isVar := info.Uses[e].(*types.Var); isVar {
				if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
					ok = false
				}
			}
		case *ast.SelectorExpr:
			walk(e.X) // skip the field name: e.i is as local as e
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walk(a)
			}
		case *ast.BasicLit:
		default:
			ok = false // unknown shape: assume shared
		}
	}
	walk(idx)
	return ok
}

// takesMutex reports whether the body calls a Lock or RLock method —
// the writes are serialised, which is the race detector's domain, not
// the determinism check's.
func takesMutex(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if fn := calleeFunc(info, call); fn != nil && hasReceiver(fn) && (fn.Name() == "Lock" || fn.Name() == "RLock") {
			found = true
		}
		return !found
	})
	return found
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// checkMapRange flags `for ... range m` over a map when the body does
// something whose result depends on iteration order. The sorted-keys
// preamble — collect keys, sort, iterate the slice — is recognised and
// exempt: an append target that is passed to sort/slices later in the
// same enclosing function does not leak map order.
func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	info := p.Pkg.Info
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if op := orderSensitiveOp(p.Pkg, rng); op != "" {
		p.Reportf(rng.Pos(), "map iteration with order-sensitive body (%s); iterate sorted keys for seed-stable output", op)
	}
}

func orderSensitiveOp(pkg *Package, rng *ast.RangeStmt) string {
	info := pkg.Info
	keyName := rangeKeyName(rng)
	found := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(info, n) {
				if keyedByIdent(n.Args, keyName) {
					return true // per-key accumulation is order-independent
				}
				if !sortedAfter(pkg, rng, appendTarget(n)) {
					found = "append without a subsequent sort"
				}
				return true
			}
			if fn := calleeFunc(info, n); fn != nil {
				name := fn.Name()
				if pkgPath(fn) == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Append")) {
					found = "fmt output"
					return false
				}
				if hasReceiver(fn) && writerMethods[name] {
					found = "writer method " + name
					return false
				}
			}
		case *ast.AssignStmt:
			if keyedByIdent(n.Lhs, keyName) {
				return true // sums[k] += v touches a distinct cell per key
			}
			if op := accumulationOp(info, n); op != "" {
				found = op
				return false
			}
		}
		return true
	})
	return found
}

// rangeKeyName returns the loop's key identifier, "" if blank/absent.
func rangeKeyName(rng *ast.RangeStmt) string {
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		return id.Name
	}
	return ""
}

// keyedByIdent reports whether the first expression is an index
// expression whose index mentions the range key — per-key writes land
// in a distinct cell per iteration, so iteration order cannot matter.
func keyedByIdent(exprs []ast.Expr, key string) bool {
	if key == "" || len(exprs) == 0 {
		return false
	}
	ix, ok := unparen(exprs[0]).(*ast.IndexExpr)
	return ok && mentionsIdent(ix.Index, key)
}

var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true, "Encode": true,
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget names the slice being appended to, "" if unnamed.
func appendTarget(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if id, ok := unparen(call.Args[0]).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// sortedAfter reports whether target is handed to a sort/slices
// function in a statement after the range loop inside the enclosing
// function — the sorted-keys preamble.
func sortedAfter(pkg *Package, rng *ast.RangeStmt, target string) bool {
	if target == "" {
		return false
	}
	info := pkg.Info
	sorted := false
	for _, f := range pkg.Files {
		if f.Pos() > rng.Pos() || f.End() < rng.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < rng.End() || sorted {
				return !sorted
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if path := pkgPath(fn); path != "sort" && path != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentionsIdent(arg, target) {
					sorted = true
					return false
				}
			}
			return true
		})
	}
	return sorted
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// accumulationOp flags compound assignments whose result depends on
// evaluation order: float accumulation (addition is not associative)
// and string concatenation.
func accumulationOp(info *types.Info, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	t := info.TypeOf(as.Lhs[0])
	if isFloat(t) {
		return "floating-point accumulation"
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		return "string concatenation"
	}
	return ""
}
