// Package lint is the repo's static-analysis suite: four analyzers that
// enforce the determinism, concurrency, and error-contract invariants the
// differential test harnesses otherwise only catch dynamically. The suite
// runs three ways: as the cmd/aapsmvet binary over ./..., inside
// TestRepoLintClean (so `go test ./...` is the gate), and against the golden
// corpus under testdata/src.
//
// The framework mirrors the golang.org/x/tools go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library only —
// go/parser, go/types and the stdlib source importer — so the module keeps
// its zero-dependency property. An analyzer sees one fully type-checked
// package at a time and reports position-tagged diagnostics.
//
// Suppression: a finding is silenced by an allow directive on the same line
// or the line directly above it:
//
//	//aapsmvet:allow <analyzer> <reason>
//
// The reason is mandatory; a reasonless allow is itself a diagnostic. A
// function can declare a lock precondition for the guardedby analyzer with
//
//	//aapsmvet:holds <mutex>
//
// which is the explicit form of the *Locked method-name convention.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path the package was loaded under. Golden test
	// packages are loaded under synthetic repo paths so the analyzers'
	// package-scope rules apply to them unchanged.
	PkgPath string
	// testFiles marks which files are _test.go files (in-package test files
	// are loaded so error-contract checks cover them; most analyzers skip
	// them).
	testFiles map[*ast.File]bool

	diags []Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	for f, isTest := range p.testFiles {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return isTest
		}
	}
	return false
}

// All returns the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		GuardedByAnalyzer,
		CtxflowAnalyzer,
		FlowErrorAnalyzer,
	}
}

// directive is one parsed //aapsmvet: comment.
type directive struct {
	pos      token.Position
	kind     string // "allow" or "holds"
	analyzer string // allow: analyzer name; holds: mutex name
	reason   string
}

const directivePrefix = "//aapsmvet:"

// parseDirectives extracts every aapsmvet directive in the package.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				kind, args := "", ""
				switch {
				case strings.HasPrefix(fields[0], "allow"):
					kind = "allow"
					args = strings.TrimSpace(strings.TrimPrefix(rest, "allow"))
				case strings.HasPrefix(fields[0], "holds"):
					kind = "holds"
					args = strings.TrimSpace(strings.TrimPrefix(rest, "holds"))
				default:
					continue
				}
				d := directive{pos: fset.Position(c.Pos()), kind: kind}
				if i := strings.IndexAny(args, " \t"); i >= 0 {
					d.analyzer, d.reason = args[:i], strings.TrimSpace(args[i+1:])
				} else {
					d.analyzer = args
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// holdsDirective returns the mutex name a //aapsmvet:holds directive attached
// to fn declares, or "".
func holdsDirective(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix+"holds") {
			args := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix+"holds"))
			if f := strings.Fields(args); len(f) > 0 {
				return f[0]
			}
		}
	}
	return ""
}

// RunAnalyzer runs a over pkg and returns its surviving diagnostics: raw
// findings minus those silenced by a reasoned allow directive, plus one
// finding per reasonless allow directive naming a.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		PkgPath:   pkg.Path,
		testFiles: pkg.testFiles,
	}
	a.Run(pass)

	dirs := parseDirectives(pkg.Fset, pkg.Files)
	// allowed[file][line] = reason present?
	type lineKey struct {
		file string
		line int
	}
	allowed := map[lineKey]bool{}
	var out []Diagnostic
	for _, d := range dirs {
		if d.kind != "allow" || d.analyzer != a.Name {
			continue
		}
		if d.reason == "" {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("allow directive for %q is missing a reason", a.Name),
			})
			continue
		}
		allowed[lineKey{d.pos.Filename, d.pos.Line}] = true
	}
	for _, diag := range pass.diags {
		k := lineKey{diag.Pos.Filename, diag.Pos.Line}
		above := lineKey{diag.Pos.Filename, diag.Pos.Line - 1}
		if allowed[k] || allowed[above] {
			continue
		}
		out = append(out, diag)
	}
	sortDiagnostics(out)
	return out
}

// RunAll runs every analyzer in All over pkg, plus the directive hygiene
// check for allow directives naming unknown analyzers.
func RunAll(pkg *Package) []Diagnostic {
	var out []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
		out = append(out, RunAnalyzer(a, pkg)...)
	}
	for _, d := range parseDirectives(pkg.Fset, pkg.Files) {
		if d.kind == "allow" && !known[d.analyzer] {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "aapsmvet",
				Message:  fmt.Sprintf("allow directive names unknown analyzer %q", d.analyzer),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pipelinePackages are the solver/pipeline package paths whose results must
// be bit-identical across worker counts and incremental generations; the
// determinism and ctxflow analyzers scope to them.
var pipelinePackages = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/graph":    true,
	"repro/internal/planar":   true,
	"repro/internal/tjoin":    true,
	"repro/internal/matching": true,
	"repro/internal/setcover": true,
	"repro/internal/shifter":  true,
	"repro/internal/correct":  true,
	"repro/internal/drc":      true,
	"repro/internal/mask":     true,
	"repro/internal/compact":  true,
	"repro/internal/tshape":   true,
}

// isPipelinePkg reports whether path is one of the solver/pipeline packages.
func isPipelinePkg(path string) bool { return pipelinePackages[path] }

// pkgOf resolves the types.Package an identifier refers to when it names an
// imported package (e.g. the "time" in time.Now), or nil.
func pkgOf(info *types.Info, id *ast.Ident) *types.Package {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj.Imported()
	}
	return nil
}

// selectorCall matches call expressions of the form pkg.Name(...) against an
// import path, returning the selected name and true.
func selectorCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if p := pkgOf(info, id); p != nil && p.Path() == pkgPath {
		return sel.Sel.Name, true
	}
	return "", false
}

// rootIdent returns the leftmost identifier of a selector/index/paren chain
// (x in x.y[i].z), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// exprString renders a selector chain like "s.mu" for lock-path matching; it
// returns "" for expressions that are not pure identifier/selector chains.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprString(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	default:
		return ""
	}
}
