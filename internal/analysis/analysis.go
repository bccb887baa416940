// Package analysis is a small, dependency-free analysis framework modelled
// on golang.org/x/tools/go/analysis. The repository's hard invariants —
// bit-identical execution at any worker/shard count, the engine-owned
// frame lifecycle, the pow-free kernel arithmetic and the allocation-free
// hot paths — are enforced dynamically by the differential and alloc test
// suites; the analyzers built on this package enforce them *statically*, at
// lint time, so a regression fails in seconds instead of surviving until a
// differential test happens to exercise it.
//
// The package mirrors the x/tools API shape (Analyzer, Pass, Diagnostic and
// a Reportf method) so that the analyzers can migrate to the real framework
// by changing imports if golang.org/x/tools ever becomes available in this
// build environment; it is deliberately self-contained because the module
// builds offline with no external dependencies. Package loading and type
// checking live in the sibling driver package; per-analyzer expectations
// testing lives in analysistest.
//
// # Annotation grammar
//
// Two comment directives, written with no space after "//" like all Go tool
// directives, control the analyzers:
//
//	//sinrlint:allow <name>[,<name>...] [justification...]
//	//sinrlint:hotpath [justification...]
//
// An allow directive suppresses the named analyzers' diagnostics on the
// directive's own line and the line immediately below it; when it appears
// in the doc comment of a declaration it suppresses them for the entire
// declaration. Every allow is expected to carry a short justification —
// the escape hatch exists for sites that are deliberately outside an
// invariant (timing probes in driver calibration, the naive reference
// channel), not for silencing real violations.
//
// A hotpath directive in a function's doc comment declares the function to
// be on the allocation-free steady-state slot path; the hotalloc analyzer
// then rejects allocating constructs in its body.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sinrlint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Match reports whether the analyzer applies to the package with the
	// given import path. A nil Match applies to every package. The driver
	// consults Match; test harnesses may run an analyzer on any package
	// directly.
	Match func(pkgPath string) bool
	// Run performs the check on one package. Findings are reported through
	// pass.Reportf; the error return is for analysis failures only.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	allow  *allowIndex
}

// NewPass assembles a pass over one type-checked package. report receives
// every diagnostic that survives the allow-directive filter.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		report:   report,
		allow:    buildAllowIndex(fset, files),
	}
}

// Reportf reports a finding at pos unless an //sinrlint:allow directive for
// this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.allow.allows(p.Analyzer.Name, p.Fset.Position(pos)) {
		return
	}
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier uses or defines, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// IsTestFile reports whether pos lies in a _test.go file. The analyzers
// enforce invariants on shipped code only: tests legitimately read the
// clock, use fmt, and construct frames by hand.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// NonTestFiles returns the pass's files excluding _test.go files.
func (p *Pass) NonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !IsTestFile(p.Fset, f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// directive holds one parsed //sinrlint: comment.
type directive struct {
	names []string // analyzer names for allow; nil for hotpath
	line  int
}

const (
	allowPrefix   = "//sinrlint:allow"
	hotpathPrefix = "//sinrlint:hotpath"
)

// parseAllow parses an allow directive's analyzer-name list, returning nil
// if the comment is not an allow directive.
func parseAllow(text string) []string {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //sinrlint:allowance
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// IsHotpathDoc reports whether a declaration's doc comment carries the
// //sinrlint:hotpath directive.
func IsHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			rest := strings.TrimPrefix(c.Text, hotpathPrefix)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// allowRange suppresses a set of analyzers over a closed line interval of
// one file (used for declaration-level allows).
type allowRange struct {
	from, to int
	names    map[string]bool
}

type fileAllows struct {
	lines  map[int]map[string]bool // line -> analyzer names allowed on it
	ranges []allowRange
}

type allowIndex struct {
	byFile map[string]*fileAllows
}

func (ix *allowIndex) file(name string) *fileAllows {
	fa := ix.byFile[name]
	if fa == nil {
		fa = &fileAllows{lines: map[int]map[string]bool{}}
		ix.byFile[name] = fa
	}
	return fa
}

func (fa *fileAllows) addLine(line int, names []string) {
	m := fa.lines[line]
	if m == nil {
		m = map[string]bool{}
		fa.lines[line] = m
	}
	for _, n := range names {
		m[n] = true
	}
}

// buildAllowIndex scans every comment in the package once. A line-level
// allow covers its own line and the next line (the directive usually sits
// on its own line immediately above the construct it excuses, or trails the
// construct on the same line). A directive inside a declaration's doc
// comment covers the whole declaration.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{byFile: map[string]*fileAllows{}}
	for _, f := range files {
		var fa *fileAllows
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if names == nil {
					continue
				}
				if fa == nil {
					fa = ix.file(fset.Position(f.Pos()).Filename)
				}
				line := fset.Position(c.Pos()).Line
				fa.addLine(line, names)
				fa.addLine(line+1, names)
			}
		}
		// Declaration-level allows: a directive in a doc comment widens to
		// the declaration's full extent.
		for _, d := range f.Decls {
			var doc *ast.CommentGroup
			switch d := d.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			var names []string
			for _, c := range doc.List {
				names = append(names, parseAllow(c.Text)...)
			}
			if len(names) == 0 {
				continue
			}
			if fa == nil {
				fa = ix.file(fset.Position(f.Pos()).Filename)
			}
			set := map[string]bool{}
			for _, n := range names {
				set[n] = true
			}
			fa.ranges = append(fa.ranges, allowRange{
				from:  fset.Position(d.Pos()).Line,
				to:    fset.Position(d.End()).Line,
				names: set,
			})
		}
	}
	return ix
}

func (ix *allowIndex) allows(analyzer string, pos token.Position) bool {
	fa := ix.byFile[pos.Filename]
	if fa == nil {
		return false
	}
	if m := fa.lines[pos.Line]; m[analyzer] {
		return true
	}
	for _, r := range fa.ranges {
		if pos.Line >= r.from && pos.Line <= r.to && r.names[analyzer] {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file position, then analyzer name,
// for stable output across runs — the lint gate's own output must be as
// deterministic as the code it polices.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// PkgPathBase strips the " [test-variant]" suffix the go command appends to
// the import paths of test-augmented package units, so Match rules see the
// plain import path in both standalone and vettool modes.
func PkgPathBase(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}
