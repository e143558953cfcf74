package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// funcAllow lists the exported functions no non-test file calls that stay
// anyway, each with the reason. An entry whose function gains a caller (or
// disappears) fails the test, so the list cannot go stale.
var funcAllow = map[string]string{
	"acq.QNEI":             "per-trial oracle: FuzzSharedVsPerTrial and pamo's solve_test hold the shared scorer to it",
	"acq.QEI":              "per-trial oracle of FuzzSharedVsPerTrial",
	"acq.QUCB":             "per-trial oracle of FuzzSharedVsPerTrial",
	"mat.Chol":             "reference factorization the in-place, jittered and extended Cholesky tests compare against",
	"mat.FromRows":         "test fixture: builds literal matrices in mat's tests",
	"sched.Rat":            "cross-package test fixture: literal stream periods in check and runtime tests",
	"shard.NewArbiter":     "test fixture: the arbiter's unit tests build a standalone one (the Planner embeds its own)",
	"eva.AnalyticOutcomes": "closed-form DES oracle; ROADMAP item 14 decides it",
	"stats.Quantile":       "no caller but its tests; FuzzQuantileBounds fuzzes it, so it stays with that fuzzer",
	"stats.NormQuantile":   "no caller but its tests since EUBO's sentinel became -Inf; ROADMAP item 1 plans Const2 against mean + z·sd with it",
}

// TestExportedFuncsHaveCallers is the exported-function census: every
// exported package-level func declared in a non-test file under internal/
// must be referenced from some non-test Go file of the tree (bench/, cmd/
// and examples/ count). A reference is `pkg.F` in a file that imports the
// package, or a bare `F` in another function of its own package. A function
// only tests reach is dead API: delete it, move it into the _test.go file
// that uses it as an oracle, or allowlist it above with the reason it stays.
//
// The census is syntactic, like TestOptionFieldsHaveCallers: a bare
// identifier that merely shares the function's name counts as a reference,
// which can only err toward passing.
func TestExportedFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // every non-test Go file, by path
	if err := walkProductionGo(func(file string) error {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		files[file] = f
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The exported package-level funcs under internal/, keyed "importpath.F".
	declared := map[string]bool{}
	for file, f := range files {
		dir := filepath.ToSlash(filepath.Dir(file))
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				declared["repro/"+dir+"."+fd.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("census found no exported functions under internal/ — it rotted")
	}

	used := map[string]bool{}
	for file, f := range files {
		self := "repro/" + filepath.ToSlash(filepath.Dir(file))
		imported := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		for _, d := range f.Decls {
			// A function's references to itself (recursion) are not callers.
			var own string
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				own = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && imported[pkg.Name] != "" {
						used[imported[pkg.Name]+"."+n.Sel.Name] = true
						return false
					}
				case *ast.Ident:
					if n.Name != own {
						used[self+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for fn := range declared {
		short := strings.TrimPrefix(fn, "repro/internal/")
		switch {
		case !used[fn] && funcAllow[short] == "":
			dead = append(dead, short)
		case used[fn] && funcAllow[short] != "":
			t.Errorf("%s has a non-test caller now: drop its allowlist entry", short)
		}
	}
	sort.Strings(dead)
	for _, fn := range dead {
		t.Errorf("%s: exported, but no non-test file references it", fn)
	}
	for fn := range funcAllow {
		if !declared["repro/internal/"+fn] {
			t.Errorf("allowlist entry %s names no exported function", fn)
		}
	}
}
