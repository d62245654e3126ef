// Package analysis is a stdlib-only static-analyzer suite, run by
// `cuttlesys lint`, that machine-checks the repository invariants the
// reproduction's guarantees rest on — byte-stable seeded reports,
// single-origin RNG streams, NaN/Inf-free numeric hot paths and no
// silently dropped errors. Goroutine writes are not among them: the
// race detector (`make race`) checks those. See DESIGN.md §7 for the
// mapping from each check to a paper guarantee.
//
// Checks come in two widths. Narrow analyzers run per package and
// reason about one function at a time. Wide analyzers run once over
// the whole module on a shared call graph (Program) and prove
// transitive properties — a hot-path root whose third-level callee
// allocates — and attach the offending call chain to the diagnostic.
//
// A finding can be waived in place with a directive on the flagged
// line or the line directly above it:
//
//	//lint:allow <check> <reason>
//
// For chain-carrying diagnostics the directive is honored at any
// frame of the chain: waiving the call site is as good as waiving the
// source. The reason is mandatory: an allow documents why the
// invariant does not apply, it does not merely silence the tool.
// When the full suite runs, directives that suppress nothing are
// themselves reported (check "lint") so documented waivers cannot rot
// silently.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)

	// Wide marks a module-wide analyzer: Run is invoked once with
	// Pass.Prog set (and Pass.Pkg nil) instead of once per package.
	Wide bool
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism, Seedflow, Floatsafe, Errdrop, Obsclean, Hotpath,
	}
}

// A Pass is one analyzer applied to one package (narrow) or to the
// whole module (wide).
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package // nil for wide analyzers
	Prog     *Program // nil for narrow analyzers

	fset  *token.FileSet
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportChain records a diagnostic at pos carrying the call chain that
// reaches it. The chain is rendered into the message — "(chain decide
// → evalCell → append)" — and kept structurally so waivers can match
// any frame and -json output can expose it.
func (p *Pass) ReportChain(pos token.Pos, chain []Frame, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(chain) > 1 {
		names := make([]string, len(chain))
		for i, fr := range chain {
			names[i] = fr.Func
		}
		msg += " (chain " + strings.Join(names, " → ") + ")"
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: msg,
		Chain:   chain,
	})
}

// A Frame is one step of a call chain: the function entered and the
// position of the call (or root declaration) that entered it.
type Frame struct {
	Func string
	Pos  token.Position
}

// A Diagnostic is one finding, possibly waived by a lint:allow
// directive.
type Diagnostic struct {
	Pos        token.Position
	Check      string
	Message    string
	Chain      []Frame // call chain for interprocedural findings, else nil
	Suppressed bool    // waived by //lint:allow
	Reason     string  // the directive's reason when suppressed
}

// allowDirective is one parsed //lint:allow comment. used tracks
// whether it suppressed at least one finding this run, which feeds
// the stale-waiver audit.
type allowDirective struct {
	check  string
	reason string
	pos    token.Position
	used   bool
}

const directivePrefix = "lint:allow"

// collectAllows parses every //lint:allow directive across all
// packages, keyed by file:line, and also returns them in parse order
// for the stale audit. Malformed directives become diagnostics
// themselves (check "lint"): a waiver without a named check and a
// reason is exactly the silent rot the suite exists to prevent.
func collectAllows(pkgs []*Package, known map[string]bool, diags *[]Diagnostic) (map[string][]*allowDirective, []*allowDirective) {
	byLine := map[string][]*allowDirective{}
	var all []*allowDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok { // /* ... */ comments cannot carry directives
						continue
					}
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 3 {
						*diags = append(*diags, Diagnostic{
							Pos: pos, Check: "lint",
							Message: "malformed directive: want //lint:allow <check> <reason>",
						})
						continue
					}
					check := fields[1]
					if !known[check] {
						*diags = append(*diags, Diagnostic{
							Pos: pos, Check: "lint",
							Message: fmt.Sprintf("//lint:allow names unknown check %q", check),
						})
						continue
					}
					al := &allowDirective{
						check:  check,
						reason: strings.Join(fields[2:], " "),
						pos:    pos,
					}
					key := lineKey(pos.Filename, pos.Line)
					byLine[key] = append(byLine[key], al)
					all = append(all, al)
				}
			}
		}
	}
	return byLine, all
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// RunAnalyzers applies the analyzers to every package and returns all
// diagnostics, sorted by position, with lint:allow waivers applied.
// Wide analyzers run once over a call-graph Program built from the
// non-test packages; the Program (and its type-checked packages,
// already shared through the loader's compile cache) is constructed
// once and reused by every wide pass.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Directives may name any check in the registry, not just the ones
	// running now: a subset run must not misreport other checks' allows.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	var prog *Program
	for _, a := range analyzers {
		if a.Wide {
			if prog == nil {
				prog = BuildProgram(pkgs)
			}
			pass := &Pass{Analyzer: a, Prog: prog, fset: prog.Fset, diags: &diags}
			a.Run(pass)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, fset: pkg.Fset, diags: &diags}
			a.Run(pass)
		}
	}

	allows, all := collectAllows(pkgs, known, &diags)
	for i := range diags {
		d := &diags[i]
		if d.Check == "lint" {
			continue // directive problems are never self-waivable
		}
		suppress(d, allows)
	}

	// Stale-waiver audit: only a full-suite run can prove a directive
	// suppresses nothing — a subset run simply didn't execute the
	// check the waiver is for.
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	full := true
	for _, a := range Analyzers() {
		if !ran[a.Name] {
			full = false
			break
		}
	}
	if full {
		for _, al := range all {
			if !al.used {
				diags = append(diags, Diagnostic{
					Pos: al.pos, Check: "lint",
					Message: fmt.Sprintf("stale //lint:allow %s: it suppresses no finding; delete the directive", al.check),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

// suppress waives d if a directive naming its check sits on the
// finding's line, the line above it, or — for chain-carrying
// diagnostics — on (or above) any frame of the call chain.
func suppress(d *Diagnostic, allows map[string][]*allowDirective) {
	at := func(file string, line int) bool {
		hit := false
		for _, l := range []int{line, line - 1} {
			for _, al := range allows[lineKey(file, l)] {
				if al.check == d.Check {
					al.used = true
					d.Suppressed = true
					d.Reason = al.reason
					hit = true
				}
			}
		}
		return hit
	}
	if at(d.Pos.Filename, d.Pos.Line) {
		return
	}
	for _, fr := range d.Chain {
		if at(fr.Pos.Filename, fr.Pos.Line) {
			return
		}
	}
}

// Format writes diagnostics with paths relative to root and returns
// the number of unsuppressed violations. Suppressed findings are shown
// only when showAllowed is set.
func Format(w io.Writer, root string, diags []Diagnostic, showAllowed bool) int {
	violations := 0
	for _, d := range diags {
		path := relPath(root, d.Pos.Filename)
		switch {
		case !d.Suppressed:
			violations++
			fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", path, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		case showAllowed:
			fmt.Fprintf(w, "%s:%d:%d: [%s] %s (allowed: %s)\n", path, d.Pos.Line, d.Pos.Column, d.Check, d.Message, d.Reason)
		}
	}
	return violations
}

// Violations counts the unsuppressed diagnostics.
func Violations(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// jsonDiagnostic is the -json wire form of one finding. Fields are
// flattened and paths root-relative so the artifact is byte-stable
// across checkouts.
type jsonDiagnostic struct {
	File    string      `json:"file"`
	Line    int         `json:"line"`
	Col     int         `json:"col"`
	Check   string      `json:"check"`
	Message string      `json:"message"`
	Allowed bool        `json:"allowed,omitempty"`
	Reason  string      `json:"reason,omitempty"`
	Chain   []jsonFrame `json:"chain,omitempty"`
}

type jsonFrame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// WriteJSON emits every diagnostic (including suppressed ones, marked
// allowed) as an indented JSON array. Input order is preserved;
// RunAnalyzers already sorts, so the output is deterministic.
func WriteJSON(w io.Writer, root string, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		jd := jsonDiagnostic{
			File:    relPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
			Allowed: d.Suppressed,
			Reason:  d.Reason,
		}
		for _, fr := range d.Chain {
			jd.Chain = append(jd.Chain, jsonFrame{
				Func: fr.Func,
				File: relPath(root, fr.Pos.Filename),
				Line: fr.Pos.Line,
			})
		}
		out = append(out, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// --- shared AST/type helpers used by the individual analyzers ---

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call's target to a *types.Func (package-level
// function or method), or nil for builtins, conversions and calls of
// function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPath returns the import path of the package an object belongs to,
// or "" for universe-scope objects.
func pkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isModuleLocal reports whether path lies inside the analyzed module.
func isModuleLocal(path, modPath string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// hasPathSegment reports whether seg (e.g. "internal/core") appears as
// a complete segment run inside the import path.
func hasPathSegment(path, seg string) bool {
	return strings.Contains("/"+strings.TrimSuffix(path, "_test")+"/", "/"+seg+"/")
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// hasReceiver reports whether fn is a method.
func hasReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
