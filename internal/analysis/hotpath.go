package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath guards the decision loop's per-candidate cost model: a
// function whose doc comment carries a //hot:path directive declares
// itself part of the per-evaluation fast path (DESIGN.md §11), where
// the budget is pure arithmetic — no transcendental log calls, no
// allocation, no map walks. The check flags math.Log and friends
// (precompute them into the score tables), the allocating builtins
// make/new/append and composite literals (hoist buffers into
// per-worker state), and map iteration (nondeterministic order and
// hash-walk cost per call). The marker is the gofmt-stable directive
// form:
//
//	//hot:path <why this function is on the eval path>
//
// The promise covers everything the marked body can reach through
// module-local calls — a helper three frames down that calls append
// still costs an allocation per candidate. The pass checks each root's
// own body (depth 0), then walks its call closure breadth-first, so the
// reported chain is a shortest witness:
//
//	append in sub.grow allocates per call; hoist the buffer into
//	per-worker state — reached from //hot:path root hot.Score
//	(chain hot.Score → sub.Cell → sub.grow)
//
// A callee that carries its own marker is skipped by the walk: it is a
// root itself, so its body and closure are checked from there. Function
// values are followed conservatively: a function passed as a value from
// a hot body may be called by whoever receives it. Each offense is
// reported once, and a //lint:allow hotpath directive at any frame of
// the chain waives it.
//
// Unmarked functions are only checked when a marked one reaches them;
// the check enforces a promise a function makes about itself, not a
// global style.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "no log calls, allocation or map iteration in //hot:path functions or anything they call",
	Run:  runHotpath,
	Wide: true,
}

// hotMarker is the directive prefix, matched after the // with no
// leading space — the gofmt directive-comment form.
const hotMarker = "hot:path"

func runHotpath(p *Pass) {
	prog := p.Prog
	reported := map[token.Pos]bool{} // closure offenses already attributed to some root
	for _, root := range prog.Funcs {
		if !root.Hot {
			continue
		}
		for _, off := range scanHotOffenses(root.Pkg.Info, root.Decl.Body) {
			p.Reportf(off.pos, "%s in hot-path function %s%s", off.head, root.Decl.Name.Name, off.tail)
		}
		type item struct {
			fi    *FuncInfo
			chain []Frame
		}
		rootFrame := Frame{Func: root.Name, Pos: prog.Fset.Position(root.Decl.Name.Pos())}
		queue := []item{{root, []Frame{rootFrame}}}
		visited := map[*FuncInfo]bool{root: true}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, s := range prog.succs(cur.fi, true) {
				if visited[s.target] {
					continue
				}
				visited[s.target] = true
				if s.target.Hot {
					continue // a root itself: checked from there
				}
				chain := append(append([]Frame{}, cur.chain...),
					Frame{Func: s.target.Name, Pos: prog.Fset.Position(s.pos)})
				for _, off := range scanHotOffenses(s.target.Pkg.Info, s.target.Decl.Body) {
					if reported[off.pos] {
						continue
					}
					reported[off.pos] = true
					p.ReportChain(off.pos, chain, "%s in %s%s — reached from //hot:path root %s",
						off.head, s.target.Name, off.tail, root.Name)
				}
				queue = append(queue, item{s.target, chain})
			}
		}
	}
}

// hotMarked reports whether the function's doc comment carries a
// //hot:path directive line.
func hotMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, "//"); ok &&
			strings.HasPrefix(strings.TrimSpace(text), hotMarker) {
			return true
		}
	}
	return false
}

// hotLogCalls are the math transcendentals the score tables exist to
// precompute. math.Exp stays legal: the objective's final fold is one
// Exp per candidate by construction and cannot be tabulated.
var hotLogCalls = map[string]bool{"Log": true, "Log2": true, "Log10": true, "Log1p": true}

// hotOffense is one purity break inside a function body. head names
// the construct and tail carries the advice; a root's own body and a
// callee in its closure compose them around different subjects, so the
// wording stays identical at any depth.
type hotOffense struct {
	pos  token.Pos
	head string // "make", "append", "map iteration", "math.Log", "composite literal"
	tail string
}

// scanHotOffenses collects every hot-path purity break in a body: map
// iteration, the allocating builtins, composite literals and the
// math.Log family.
func scanHotOffenses(info *types.Info, body *ast.BlockStmt) []hotOffense {
	var offs []hotOffense
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					offs = append(offs, hotOffense{n.Pos(), "map iteration", ": nondeterministic order and hash-walk cost per call"})
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						offs = append(offs, hotOffense{n.Pos(), b.Name(), " allocates per call; hoist the buffer into per-worker state"})
					}
				}
			}
			if fn := calleeFunc(info, n); fn != nil && pkgPath(fn) == "math" && hotLogCalls[fn.Name()] {
				offs = append(offs, hotOffense{n.Pos(), "math." + fn.Name(), "; precompute it into the score tables"})
			}
		case *ast.CompositeLit:
			offs = append(offs, hotOffense{n.Pos(), "composite literal", " constructs a fresh value per call; hoist it into per-worker state"})
		}
		return true
	})
	return offs
}
