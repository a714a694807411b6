// Package lint is a small, dependency-free analogue of the
// golang.org/x/tools go/analysis framework, tailored to this repository.
// It exists because the simulator's correctness argument rests on
// properties a compiler cannot check — bit-reproducible output, loud
// invariant panics, no silently dropped metrics, allocation-free hot
// paths — and the module is deliberately stdlib-only, so the real
// go/analysis cannot be vendored.
//
// The shape mirrors go/analysis closely: an Analyzer bundles a name, doc
// string, and a Run function over a Pass; a Pass exposes the package's
// syntax trees and full type information and collects Diagnostics. The
// loader (load.go) typechecks packages from source, resolving imports
// through compiler export data obtained from `go list -export`, so
// analyzers see the same types the compiler does.
//
// Two analyzer shapes exist. Per-package analyzers (Run) see one package
// at a time. Whole-program analyzers (RunProgram) see every loaded
// package at once — the hotpath analyzer needs the full call graph, so
// it must observe cross-package edges. Because each package is
// typechecked independently, types.Object identities do NOT hold across
// packages; cross-package facilities key functions by stable string
// keys (see callgraph.go).
//
// Diagnostics can be suppressed per line with a trailing or preceding
//
//	//nurapidlint:ignore <analyzer> <reason>
//
// comment, mirroring staticcheck's lint directives. Directive hygiene is
// itself checked: a directive naming an unknown analyzer, or one that
// suppressed nothing in a run that included its analyzer, is reported
// under the reserved name "directives".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through the Pass. The returned error signals an analysis failure
	// (not a finding) and aborts the run. Exactly one of Run and
	// RunProgram is set.
	Run func(*Pass) error
	// RunProgram applies the analyzer to every loaded package at once,
	// for checks that need cross-package visibility (call graphs).
	RunProgram func(*Program) error
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	ignores map[string][]*ignoreDirective // filename -> directives
	diags   *[]Diagnostic
}

// A Program is one whole-program analyzer applied to every loaded
// package. Diagnostics are reported through the per-package passes so
// ignore directives keep working.
type Program struct {
	Pkgs   []*Package
	passes map[*Package]*Pass
}

// Pass returns the reporting pass for pkg.
func (p *Program) Pass(pkg *Package) *Pass { return p.passes[pkg] }

// Reportf records a finding at pos inside pkg unless an ignore
// directive covers it.
func (p *Program) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.passes[pkg].Reportf(pos, format, args...)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

type ignoreDirective struct {
	line     int
	analyzer string // "" means all analyzers
	pos      token.Position
	used     bool
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, ig := range p.ignores[position.Filename] {
		if (ig.analyzer == "" || ig.analyzer == p.Analyzer.Name) &&
			(ig.line == position.Line || ig.line == position.Line-1) {
			ig.used = true
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// collectIgnores scans a file's comments for //nurapidlint:ignore
// directives.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string][]*ignoreDirective {
	out := make(map[string][]*ignoreDirective)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "nurapidlint:ignore") {
					continue
				}
				rest := strings.TrimPrefix(text, "nurapidlint:ignore")
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				dir := &ignoreDirective{line: pos.Line, pos: pos}
				if len(fields) > 0 {
					dir.analyzer = fields[0]
				}
				out[pos.Filename] = append(out[pos.Filename], dir)
			}
		}
	}
	return out
}

// DirectivesName is the reserved analyzer name under which ignore
// directive hygiene findings are reported.
const DirectivesName = "directives"

// checkDirectives reports ignore directives that name an analyzer not
// in the registry (a typo'd directive suppresses nothing and warns
// nobody) and directives that suppressed no diagnostic even though
// their analyzer ran.
func checkDirectives(ran []*Analyzer, allIgnores []map[string][]*ignoreDirective, diags *[]Diagnostic) {
	known := map[string]bool{DirectivesName: true}
	for _, a := range All() {
		known[a.Name] = true
	}
	ranNames := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranNames[a.Name] = true
	}
	for _, ignores := range allIgnores {
		for _, list := range ignores {
			for _, ig := range list {
				switch {
				case ig.analyzer != "" && !known[ig.analyzer]:
					*diags = append(*diags, Diagnostic{
						Analyzer: DirectivesName,
						Pos:      ig.pos,
						Message: fmt.Sprintf(
							"ignore directive names unknown analyzer %q (known: %s)",
							ig.analyzer, strings.Join(knownNames(known), ", ")),
					})
				case !ig.used && (ig.analyzer == "" || ranNames[ig.analyzer]):
					*diags = append(*diags, Diagnostic{
						Analyzer: DirectivesName,
						Pos:      ig.pos,
						Message:  "ignore directive suppressed no diagnostic; remove it or move it to the offending line",
					})
				}
			}
		}
	}
}

func knownNames(known map[string]bool) []string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run applies each analyzer to each package and returns all diagnostics
// sorted by position. It fails only on analysis errors, never findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allIgnores := make([]map[string][]*ignoreDirective, len(pkgs))
	for i, pkg := range pkgs {
		allIgnores[i] = collectIgnores(pkg.Fset, pkg.Files)
	}
	newPass := func(a *Analyzer, i int) *Pass {
		return &Pass{
			Analyzer: a,
			Fset:     pkgs[i].Fset,
			Files:    pkgs[i].Files,
			Pkg:      pkgs[i].Types,
			Info:     pkgs[i].Info,
			ignores:  allIgnores[i],
			diags:    &diags,
		}
	}
	for i, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if err := a.Run(newPass(a, i)); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		prog := &Program{Pkgs: pkgs, passes: make(map[*Package]*Pass, len(pkgs))}
		for i, pkg := range pkgs {
			prog.passes[pkg] = newPass(a, i)
		}
		if err := a.RunProgram(prog); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	checkDirectives(analyzers, allIgnores, &diags)
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
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the repository's analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PanicStyle, StatsReg, HotPath}
}
