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
// map order into results. Writes from goroutines are the race
// detector's to check (`make race`), not this analyzer's.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, global math/rand, execution-width reads and order-sensitive map iteration",
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
			}
			return true
		})
	}
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
// function — the sorted-keys preamble. The enclosing function is the
// outermost FuncDecl or FuncLit around the loop, so a sort after a
// closure that collects the keys counts, and a sort of a same-named
// slice in another function does not.
func sortedAfter(pkg *Package, rng *ast.RangeStmt, target string) bool {
	if target == "" {
		return false
	}
	info := pkg.Info
	sorted := false
	ast.Inspect(enclosingFunc(pkg, rng), func(n ast.Node) bool {
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
	return sorted
}

// enclosingFunc returns the outermost function declaration or literal
// containing n; every statement has one.
func enclosingFunc(pkg *Package, n ast.Node) ast.Node {
	var fn ast.Node
	for _, f := range pkg.Files {
		if f.Pos() > n.Pos() || f.End() < n.End() {
			continue
		}
		ast.Inspect(f, func(c ast.Node) bool {
			if fn != nil || c == nil || c.Pos() > n.Pos() || c.End() < n.End() {
				return false
			}
			switch c.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				fn = c
				return false
			}
			return true
		})
	}
	return fn
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
