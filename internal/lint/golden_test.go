package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenCases maps each testdata/src package to the synthetic import path it
// is loaded under. The paths place each package in the scope its analyzer
// targets: pipeline packages for determinism/ctxflow and the module root for
// the flowerror API-boundary rules.
var goldenCases = []struct {
	dir  string
	path string
}{
	{"determ", "repro/internal/graph"},
	{"guard", "repro/internal/guard"},
	{"ctx", "repro/internal/core"},
	{"flowapi", "repro"},
}

// TestGolden runs the full suite over each golden package and matches the
// diagnostics against `// want` annotations, analysistest-style: every
// diagnostic must be expected by a regexp on its line, and every expectation
// must be met. Each golden package carries at least one positive and one
// negative case for its analyzer.
func TestGolden(t *testing.T) {
	loader := NewLoader()
	for _, c := range goldenCases {
		t.Run(c.dir, func(t *testing.T) {
			pkg, err := loader.Load(filepath.Join("testdata", "src", c.dir), c.path)
			if err != nil {
				t.Fatal(err)
			}
			checkWants(t, pkg, RunAll(pkg))
		})
	}
}

type wantKey struct {
	file string
	line int
}

// wantPatternRE extracts the quoted or backquoted regexps of a want comment.
var wantPatternRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// parseWants collects `// want "re" ...` annotations per (file, line).
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				raw := wantPatternRE.FindAllString(rest, -1)
				if len(raw) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
				}
				k := wantKey{pos.Filename, pos.Line}
				for _, q := range raw {
					re, err := regexp.Compile(q[1 : len(q)-1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against want annotations one-to-one.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	matched := map[wantKey][]bool{}
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for i, re := range wants[k] {
			if matched[k] == nil {
				matched[k] = make([]bool, len(wants[k]))
			}
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// TestSuppression checks the allow-directive machinery end to end: a
// reasoned allow silences its finding, a reasonless allow is itself a
// diagnostic, and an allow naming an unknown analyzer is a diagnostic.
func TestSuppression(t *testing.T) {
	pkg, err := NewLoader().Load(filepath.Join("testdata", "src", "suppress"), "repro/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAll(pkg)
	var missingReason, unknown int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "missing a reason"):
			missingReason++
		case strings.Contains(d.Message, `unknown analyzer "nosuchanalyzer"`):
			unknown++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if missingReason != 1 {
		t.Errorf("got %d missing-reason diagnostics, want 1", missingReason)
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-analyzer diagnostics, want 1", unknown)
	}
}

// TestSuppressionRequiresDirective is the inverse of the suppress golden: the
// same code without its allow directive must produce the determinism finding.
// Together with TestRepoLintClean this pins the acceptance property that
// deleting an allow comment (or a guarding sort) turns the build red.
func TestSuppressionRequiresDirective(t *testing.T) {
	pkg, err := NewLoader().Load(filepath.Join("testdata", "src", "determ"), "repro/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range RunAnalyzer(DeterminismAnalyzer, pkg) {
		if strings.Contains(d.Message, "append to out inside range over map") {
			found = true
		}
	}
	if !found {
		t.Fatal("determinism analyzer no longer flags un-suppressed, unsorted map-range appends")
	}
}

// TestRepoLintClean runs every analyzer over every package of the module and
// requires zero findings: the repo must stay lint-clean, with every accepted
// exception carried by a reasoned allow directive. This is the `go test`
// half of the aapsmvet CI gate.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo typecheck is slow; run without -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := RepoPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader()
	for _, p := range pkgs {
		pkg, err := loader.Load(p[0], p[1])
		if err != nil {
			t.Fatalf("load %s: %v", p[1], err)
		}
		for _, d := range RunAll(pkg) {
			t.Errorf("%s", d)
		}
	}
}

// TestDirectiveParsing pins the directive grammar the suite documents.
func TestDirectiveParsing(t *testing.T) {
	pkg, err := NewLoader().Load(filepath.Join("testdata", "src", "suppress"), "repro/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	if len(dirs) != 3 {
		t.Fatalf("parsed %d directives, want 3", len(dirs))
	}
	byAnalyzer := map[string]directive{}
	for _, d := range dirs {
		if d.kind != "allow" {
			t.Errorf("directive kind = %q, want allow", d.kind)
		}
		byAnalyzer[d.analyzer] = d
	}
	if d := byAnalyzer["nosuchanalyzer"]; d.reason == "" {
		t.Error("unknown-analyzer directive lost its reason")
	}
	var fns []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				fns = append(fns, fn)
			}
		}
	}
	if len(fns) == 0 {
		t.Fatal("no functions parsed from suppress golden")
	}
}
