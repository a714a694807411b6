package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleRoot is the repository root relative to this package.
const moduleRoot = "../.."

func checkGolden(t *testing.T, a *Analyzer, sub string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", sub)
	problems, err := CheckDir(moduleRoot, dir, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestDeterminismGolden(t *testing.T) { checkGolden(t, Determinism, "determinism") }
func TestPanicStyleGolden(t *testing.T)  { checkGolden(t, PanicStyle, "panicstyle") }
func TestStatsRegGolden(t *testing.T)    { checkGolden(t, StatsReg, "statsreg") }
func TestHotPathGolden(t *testing.T)     { checkGolden(t, HotPath, "hotpath") }

// TestDirectivesGolden exercises the directives meta-check: unknown
// analyzer names and suppress-nothing directives are findings (the
// golden package runs under determinism so a used directive is also
// present).
func TestDirectivesGolden(t *testing.T) { checkGolden(t, Determinism, "directives") }

// TestHotPathFrontier builds a throwaway two-package module: hotpath's
// cross-package frontier rule (annotate the callee or the edge is a
// finding) needs real package boundaries, which single-directory golden
// packages cannot express.
func TestHotPathFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list on a temp module")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module hottest\n\ngo 1.24\n",
		"a/a.go": `package a

import "hottest/b"

//nurapid:hotpath
func Fast(x int) int {
	return b.Helper(x)
}
`,
		"b/b.go": `package b

func Helper(x int) int { return x + 1 }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, []*Analyzer{HotPath})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	want := "call into hottest/b.Helper, which is not annotated //nurapid:hotpath"
	if !strings.Contains(diags[0].Message, want) {
		t.Fatalf("diagnostic %q does not mention %q", diags[0].Message, want)
	}
}

// hotRoots lists every organization-facing entry point in the module:
// each FuncDecl named Access or AccessMany, keyed as package path +
// receiver type + name. TestHotRootsAnnotated requires
// the module to declare exactly these, so adding or deleting an entry
// point must update the list.
var hotRoots = []string{
	"nurapid/internal/cache.Cache.Access",
	"nurapid/internal/cmp.Queue.Access",
	"nurapid/internal/cmp.coreFront.Access",
	"nurapid/internal/memsys.AccessMany",
	"nurapid/internal/memsys/memtest.Stub.Access",
	"nurapid/internal/nuca.Cache.Access",
	"nurapid/internal/nurapid.Cache.Access",
	"nurapid/internal/obs.Access",
	"nurapid/internal/refmodel.Cache.Access",
	"nurapid/internal/uca.Hierarchy.Access",
	"nurapid/internal/uca.Uniform.Access",
}

// TestHotRootsAnnotated is the drift guard: every real organization
// entry point — a FuncDecl named Access or AccessMany in the module —
// must carry //nurapid:hotpath or //nurapid:coldpath, so new
// organizations cannot silently dodge the analyzer, and the set of
// such declarations must be exactly hotRoots.
func TestHotRootsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	rootNames := map[string]bool{"Access": true, "AccessMany": true}
	pkgs, err := Load(moduleRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !rootNames[fd.Name.Name] {
					continue
				}
				key := pkg.Types.Path() + "." + fd.Name.Name
				if fd.Recv != nil {
					typ := fd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						key = pkg.Types.Path() + "." + id.Name + "." + fd.Name.Name
					}
				}
				found = append(found, key)
				if markOf(fd.Doc) == "" {
					pos := pkg.Fset.Position(fd.Pos())
					t.Errorf("%s: %s carries neither //nurapid:hotpath nor //nurapid:coldpath", pos, key)
				}
			}
		}
	}
	sort.Strings(found)
	if strings.Join(found, "\n") != strings.Join(hotRoots, "\n") {
		t.Fatalf("Access/AccessMany declarations drifted from hotRoots:\n got %q\nwant %q", found, hotRoots)
	}
}

// TestRepositoryIsClean is the in-process version of the CI gate: the
// whole module must lint clean under the custom analyzer suite.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := Load(moduleRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader is missing targets", len(pkgs))
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoadTypeInfo spot-checks that the loader produces real type
// information resolved through export data, not shallow parses.
func TestLoadTypeInfo(t *testing.T) {
	pkgs, err := Load(moduleRoot, "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types.Path() != "nurapid/internal/stats" {
		t.Fatalf("package path = %q", p.Types.Path())
	}
	if p.Types.Scope().Lookup("Counters") == nil {
		t.Fatal("stats.Counters not in package scope")
	}
	if len(p.Info.Uses) == 0 || len(p.Info.Selections) == 0 {
		t.Fatal("type info is empty")
	}
}
