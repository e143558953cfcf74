package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// funcAllow lists the exported functions no non-test file calls that stay
// anyway, each with the reason. An entry whose function gains a caller (or
// disappears) fails the test, so the list cannot go stale.
var funcAllow = map[string]string{
	"acq.QNEI":           "per-trial oracle: FuzzSharedVsPerTrial and pamo's solve_test hold the shared scorer to it",
	"acq.QEI":            "per-trial oracle of FuzzSharedVsPerTrial",
	"acq.QUCB":           "per-trial oracle of FuzzSharedVsPerTrial",
	"mat.Chol":           "reference factorization the in-place, jittered and extended Cholesky tests compare against",
	"mat.FromRows":       "test fixture: builds literal matrices in mat's tests",
	"sched.Rat":          "cross-package test fixture: literal stream periods in check and runtime tests",
	"stats.Quantile":     "no caller but its tests; FuzzQuantileBounds fuzzes it, so it stays with that fuzzer",
	"stats.NormQuantile": "no caller but its tests since EUBO's sentinel became -Inf; ROADMAP item 1 plans Const2 against mean + z·sd with it",
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
	files := parseProduction(t)

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

// methodAllow lists the exported methods the method census cannot see a
// caller for that stay anyway, each with the reason, keyed
// "pkg.Type.Method". Like funcAllow, an entry whose method gains a caller
// (or disappears) fails the test.
var methodAllow = map[string]string{
	"check.Checker.Violations":          "cross-package test accessor: check's and runtime's tests assert the violation total through it",
	"mat.Matrix.Mul":                    "allocating form of MulTo; mat's, gp's and prefgp's tests build fixtures and oracles with it",
	"mat.Matrix.MulVec":                 "allocating form of MulVecTo; mat's tests and prefgp's seed oracle use it",
	"mat.Matrix.T":                      "transpose for test fixtures (B·Bᵀ SPD matrices) in mat's and gp's tests",
	"mat.Matrix.SymmetricMaxAbsOffDiag": "symmetry probe that mat's, gp's and prefgp's tests hold posterior covariances to",
	"pamo.Scheduler.Diagnostics":        "LOO quality report of the outcome models; pamo's and the root package's tests read it, no command prints it yet",
}

// stdlibInterfaces are the standard-library interfaces whose methods a
// type of the tree implements for the library to call, and that no
// selector of the tree names: a type that declares every method of one
// has them all referenced. (Error, String, Len and the like are selected
// somewhere in the tree already.)
var stdlibInterfaces = map[string][]string{
	"errors.Unwrap":       {"Unwrap"},
	"json.Marshaler":      {"MarshalJSON"},
	"http.RoundTripper":   {"RoundTrip"},
	"http.ResponseWriter": {"Header", "Write", "WriteHeader"},
}

// TestExportedMethodsHaveCallers is the exported-method census, the
// method half of TestExportedFuncsHaveCallers: every exported method
// declared in a non-test file under internal/ must be referenced from
// some non-test Go file of the tree. Without type information a method
// counts as referenced when
//   - a selector .M appears in its own package or in a package that
//     imports it, directly or through other packages of the tree (no other
//     package can hold a value of the type);
//   - M is a method of an interface declared in a non-test file of the
//     tree; or
//   - its receiver type declares every method of one of the
//     stdlibInterfaces that lists M.
//
// Like the function census it can only err toward passing: any selector
// that shares the name counts, a method's calls to its own name included.
func TestExportedMethodsHaveCallers(t *testing.T) {
	files := parseProduction(t)
	pkgOf := func(file string) string {
		dir := filepath.ToSlash(filepath.Dir(file))
		if dir == "." {
			return "repro"
		}
		return "repro/" + dir
	}
	recvName := func(fd *ast.FuncDecl) string {
		e := fd.Recv.List[0].Type
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
		}
		switch e := e.(type) {
		case *ast.IndexExpr: // generic receiver T[P]
			return e.X.(*ast.Ident).Name
		case *ast.IndexListExpr:
			return e.X.(*ast.Ident).Name
		}
		return e.(*ast.Ident).Name
	}

	imports := map[string]map[string]bool{} // package → repro packages it imports
	declared := map[string][3]string{}      // "pkg.Type.M" → {pkg, type, M}
	typeMethods := map[string]map[string]bool{}
	ifaceNames := map[string]bool{}
	selected := map[string]map[string]bool{} // method name → packages selecting it
	for file, f := range files {
		pkg := pkgOf(file)
		if imports[pkg] == nil {
			imports[pkg] = map[string]bool{}
		}
		local := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = true
			if p == "repro" || strings.HasPrefix(p, "repro/") {
				imports[pkg][p] = true
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				typ := pkg + "." + recvName(fd)
				if typeMethods[typ] == nil {
					typeMethods[typ] = map[string]bool{}
				}
				typeMethods[typ][fd.Name.Name] = true
				if fd.Name.IsExported() && strings.HasPrefix(pkg, "repro/internal/") {
					declared[typ+"."+fd.Name.Name] = [3]string{pkg, typ, fd.Name.Name}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceNames[id.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && local[id.Name] {
					return true // pkg.F: a package member, not a method
				}
				if selected[n.Sel.Name] == nil {
					selected[n.Sel.Name] = map[string]bool{}
				}
				selected[n.Sel.Name][pkg] = true
			}
			return true
		})
	}
	if len(declared) == 0 {
		t.Fatal("census found no exported methods under internal/ — it rotted")
	}

	// reaches reports whether package from is to or imports it, directly or
	// through other packages of the tree (Go's import graph has no cycles).
	memo := map[[2]string]bool{}
	var reaches func(from, to string) bool
	reaches = func(from, to string) bool {
		if from == to {
			return true
		}
		key := [2]string{from, to}
		if v, ok := memo[key]; ok {
			return v
		}
		ok := false
		for p := range imports[from] {
			if reaches(p, to) {
				ok = true
				break
			}
		}
		memo[key] = ok
		return ok
	}
	satisfied := func(typ, m string) bool {
		for _, ms := range stdlibInterfaces {
			if !slices.Contains(ms, m) {
				continue
			}
			all := true
			for _, want := range ms {
				all = all && typeMethods[typ][want]
			}
			if all {
				return true
			}
		}
		return false
	}
	used := func(d [3]string) bool {
		pkg, typ, m := d[0], d[1], d[2]
		if ifaceNames[m] || satisfied(typ, m) {
			return true
		}
		for p := range selected[m] {
			if reaches(p, pkg) {
				return true
			}
		}
		return false
	}

	var dead []string
	for key, d := range declared {
		short := strings.TrimPrefix(key, "repro/internal/")
		switch u := used(d); {
		case !u && methodAllow[short] == "":
			dead = append(dead, short)
		case u && methodAllow[short] != "":
			t.Errorf("%s has a non-test caller now: drop its allowlist entry", short)
		}
	}
	sort.Strings(dead)
	for _, m := range dead {
		t.Errorf("%s: exported method, but no non-test file references it", m)
	}
	for m := range methodAllow {
		if _, ok := declared["repro/internal/"+m]; !ok {
			t.Errorf("allowlist entry %s names no exported method", m)
		}
	}
}

// parseProduction parses every non-test Go file of the tree, by path.
func parseProduction(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	if err := walkProductionGo(func(file string) error {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		files[file] = f
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return files
}
