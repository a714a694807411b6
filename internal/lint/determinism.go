package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the Runner's bit-reproducibility contract: for a
// given seed, two simulations must produce byte-identical tables and
// figures (that is what makes D-NUCA comparisons and EXPERIMENTS.md
// anchors meaningful). Four constructs break that contract:
//
//  1. wall-clock reads (time.Now and friends) leaking into results;
//  2. the process-global math/rand generator, whose sequence depends on
//     whatever else consumed it (seeded mathx.RNG / rand.New instances
//     are fine);
//  3. iterating a map while directly emitting table, figure, or printed
//     output, since Go randomizes map iteration order per run;
//  4. iterating a map into the result of a Snapshot(), Counters(), or
//     Names() implementation without sorting it before return: those
//     feed experiment tables and fingerprints, so the caller emits the
//     map order the loop leaked.
//
// Collecting map keys into a slice and sorting before output is the
// sanctioned pattern and is not flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, the global math/rand generator, and " +
		"map-range loops that feed table/figure output or unsorted " +
		"Snapshot/Counters/Names results",
	Run: runDeterminism,
}

// clockFuncs are time-package functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// seededRandFuncs are the math/rand constructors that yield explicitly
// seeded, deterministic generators; everything else package-level draws
// from (or perturbs) hidden global state.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// emittingCalls are function/method names that write experiment-visible
// output when they appear inside a map-range body.
var emittingCalls = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"AddRow": true, "AddRowStrings": true, "AddHit": true,
	"WriteText": true, "WriteCSV": true, "Render": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		// Idents consumed as the Sel of a selector are handled (with
		// package qualification) by checkForbiddenRef; the bare-ident
		// path below is for dot-imported references, which have no
		// selector at all.
		handled := make(map[*ast.Ident]bool)
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl) // the enclosing function, if any
			ast.Inspect(decl, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.SelectorExpr:
					handled[node.Sel] = true
					checkForbiddenRef(pass, node)
				case *ast.Ident:
					if !handled[node] {
						checkForbiddenIdent(pass, node)
					}
				case *ast.RangeStmt:
					checkMapRange(pass, node, fd)
				}
				return true
			})
		}
	}
	return nil
}

// pkgOf resolves a selector's qualifier to a package, or nil when the
// selector is not a package-qualified reference.
func pkgOf(pass *Pass, sel *ast.SelectorExpr) *types.Package {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

func checkForbiddenRef(pass *Pass, sel *ast.SelectorExpr) {
	pkg := pkgOf(pass, sel)
	if pkg == nil {
		return
	}
	name := sel.Sel.Name
	switch pkg.Path() {
	case "time":
		if clockFuncs[name] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock; simulations must be reproducible per seed", name)
		}
	case "math/rand", "math/rand/v2":
		if seededRandFuncs[name] {
			return
		}
		// Referencing a type (rand.Source, rand.Rand) is fine; only
		// package-level functions and variables touch global state.
		if _, isType := pass.Info.Uses[sel.Sel].(*types.TypeName); isType {
			return
		}
		pass.Reportf(sel.Pos(),
			"rand.%s uses the process-global generator; use a seeded instance (mathx.RNG or rand.New)", name)
	}
}

// checkForbiddenIdent is checkForbiddenRef for unqualified references:
// a dot import (`import . "math/rand"`) makes the forbidden functions
// reachable as bare idents, with no SelectorExpr for the selector path
// to see. The same rules apply whether the function is called or taken
// as a value — a value use (passed, aliased, stored) draws from the
// global generator at every later call site, which is exactly the
// satellite-reported hole.
func checkForbiddenIdent(pass *Pass, id *ast.Ident) {
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Methods ((*Rand).Intn on a seeded instance) and types are fine;
	// only package-level functions touch global state.
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	name := obj.Name()
	switch obj.Pkg().Path() {
	case "time":
		if clockFuncs[name] {
			pass.Reportf(id.Pos(),
				"time.%s reads the wall clock; simulations must be reproducible per seed", name)
		}
	case "math/rand", "math/rand/v2":
		if seededRandFuncs[name] {
			return
		}
		pass.Reportf(id.Pos(),
			"rand.%s uses the process-global generator; use a seeded instance (mathx.RNG or rand.New)", name)
	}
}

// snapshotFuncNames are the reporting-surface method names whose
// map-fed results must be sorted before return.
var snapshotFuncNames = map[string]bool{
	"Snapshot": true, "Counters": true, "Names": true,
}

// checkMapRange reports ranging over a map when the loop body emits
// output directly, or, inside a Snapshot/Counters/Names implementation
// (fd), when it fills a result no later sort call touches: map order is
// randomized, so either way the rows would differ between runs. The
// sanctioned pattern — range the map into a slice, sort it, then
// return — is clean when some sink the loop fills is later passed to
// sort.*, slices.Sort*, or any function whose name contains "Sort".
func checkMapRange(pass *Pass, rng *ast.RangeStmt, fd *ast.FuncDecl) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	var emitter string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if emitter != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if emittingCalls[fn.Sel.Name] {
				emitter = fn.Sel.Name
			}
		case *ast.Ident:
			if emittingCalls[fn.Name] {
				emitter = fn.Name
			}
		}
		return true
	})
	if emitter != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is random; sort keys before calling %s (output must be reproducible)", emitter)
	}
	if fd == nil || fd.Body == nil || !snapshotFuncNames[fd.Name.Name] {
		return
	}
	// A loop that fills nothing only reads (fine) or emits (reported
	// above).
	if sinks := collectSinks(pass, rng.Body); len(sinks) > 0 && !sortedAfter(pass, fd.Body, rng, sinks) {
		pass.Reportf(rng.Pos(),
			"%s ranges over a map into a result without sorting it; map order is random, so snapshots must sort before returning", fd.Name.Name)
	}
}

// collectSinks returns the objects assigned or appended to inside the
// range body — the candidates carrying map-ordered data outward.
func collectSinks(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	sinks := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		base := ast.Unparen(e)
		for {
			switch x := base.(type) {
			case *ast.IndexExpr:
				base = ast.Unparen(x.X)
				continue
			case *ast.SelectorExpr:
				base = ast.Unparen(x.X)
				continue
			case *ast.StarExpr:
				base = ast.Unparen(x.X)
				continue
			}
			break
		}
		if id, ok := base.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				sinks[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				add(lhs)
			}
		case *ast.CallExpr:
			// append(sink, ...) assigned elsewhere is caught by the
			// AssignStmt case; method fills like sink.Add(...) count
			// through the receiver.
			if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := pass.Info.Selections[sel]; isMethod {
					add(sel.X)
				}
			}
		}
		return true
	})
	return sinks
}

// sortedAfter reports whether a call that sorts one of the sinks
// appears after rng within body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, sinks map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			refs := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := pass.Info.ObjectOf(id); obj != nil && sinks[obj] {
						refs = true
					}
				}
				return !refs
			})
			if refs {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall matches sort.* and slices.Sort* calls, plus any callee
// whose name contains "Sort" (repo-local sorting helpers).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if pkg := pkgOf(pass, fun); pkg != nil {
			if pkg.Path() == "sort" || pkg.Path() == "slices" {
				return true
			}
		}
		return strings.Contains(fun.Sel.Name, "Sort")
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort")
	}
	return false
}
