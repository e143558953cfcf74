package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// optionOwners are the packages whose Options struct the census covers.
var optionOwners = []string{
	"repro/internal/pamo",
	"repro/internal/runtime",
	"repro/internal/shard",
	"repro/internal/ctlplane",
}

// optionAllow lists the fields no caller selects that stay anyway, each
// with the reason. A reason must name the test or golden that selects the
// field: a field no test, golden or caller sets to another value is a
// constant. An entry whose field gains a caller (or disappears) fails
// the test, so the list cannot go stale.
var optionAllow = map[string]string{
	"pamo.Workers":             "determinism oracle: TestParallelSamplingDeterministicAcrossWorkerCounts pins results equal across worker counts",
	"runtime.Workers":          "determinism oracle: TestIncrementalDeterministic pins traces at one evaluator worker",
	"runtime.FullResolveEvery": "fast path awaiting its bench verdict; TestChurnScenario selects it",
	"ctlplane.OnEpoch":         "selected through Controller.OnEpoch, which pamo-controller and bench call",
}

// TestOptionFieldsHaveCallers is the option census: every exported field of
// pamo.Options, runtime.Options, shard.Options and ctlplane.Options must be
// selected by a caller — given a non-zero value, as a key of an Options
// struct literal or as `x.F = v`, in a non-test Go file outside the package
// that declares it. A field only tests set, or only its own package's
// defaulting touches, is a configuration nobody runs: delete it, fold it to
// a constant, or allowlist it above with the reason it stays.
//
// The census is syntactic. Struct literals are matched by their type
// expression; `x.F = v` is matched by field name in any file that imports
// the owning package, which can only err toward passing.
func TestOptionFieldsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The fields, in declaration order, keyed "pkg.Field".
	var fields []string
	owns := map[string]map[string]bool{} // owner import path → its field names
	for _, owner := range optionOwners {
		owns[owner] = map[string]bool{}
		files, err := filepath.Glob(filepath.Join(strings.TrimPrefix(owner, "repro/"), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			ast.Inspect(parse(file), func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Options" {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							if name.IsExported() {
								owns[owner][name.Name] = true
								fields = append(fields, path.Base(owner)+"."+name.Name)
							}
						}
					}
				}
				return false
			})
		}
		if len(owns[owner]) == 0 {
			t.Fatalf("%s: no Options struct found — the census rotted", owner)
		}
	}

	selected := map[string]bool{}
	err := walkProductionGo(func(file string) error {
		f := parse(file)
		self := "repro/" + filepath.ToSlash(filepath.Dir(file))
		imported := map[string]string{} // local name → owner import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if owns[p] == nil || p == self {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		if len(imported) == 0 {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Options" {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || imported[pkg.Name] == "" {
					return true
				}
				owner := imported[pkg.Name]
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && owns[owner][key.Name] && !zeroLiteral(kv.Value) {
						selected[path.Base(owner)+"."+key.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || (len(n.Rhs) == len(n.Lhs) && zeroLiteral(n.Rhs[i])) {
						continue
					}
					for _, owner := range imported {
						if owns[owner][sel.Sel.Name] {
							selected[path.Base(owner)+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	known := map[string]bool{}
	for _, f := range fields {
		known[f] = true
		pkg, name, _ := strings.Cut(f, ".")
		switch {
		case !selected[f] && optionAllow[f] == "":
			t.Errorf("%s.Options.%s: no non-test file outside internal/%s selects it", pkg, name, pkg)
		case selected[f] && optionAllow[f] != "":
			t.Errorf("%s.Options.%s has a caller now: drop its allowlist entry", pkg, name)
		}
	}
	for f := range optionAllow {
		if !known[f] {
			t.Errorf("allowlist entry %s names no Options field", f)
		}
	}
}

// zeroLiteral reports whether e spells a zero value: assigning it selects
// nothing.
func zeroLiteral(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""`
	}
	return false
}
