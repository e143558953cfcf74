package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMetricNamesLinted walks the source tree for every metric
// registration — Counter("..."), Gauge("..."), Histogram("...") — and
// enforces three contracts:
//
//  1. every name matches ^[a-z][a-z0-9_]*$ (Prometheus-safe, no dots, no
//     uppercase),
//  2. every name is documented in the checked-in metrics.md inventory, and
//  3. every metrics.md row names a metric some registration creates,
//
// so the inventory cannot rot silently in either direction.
//
// Dynamic families built as Counter("prefix_" + label) are linted by their
// prefix: the prefix itself must be well-formed and metrics.md must list a
// `prefix_<...>` entry; such a row resolves when its prefix is registered.
func TestMetricNamesLinted(t *testing.T) {
	inventory, err := os.ReadFile("metrics.md")
	if err != nil {
		t.Fatalf("metrics.md missing: %v", err)
	}
	inv := string(inventory)

	nameRE := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// Literal registration: Counter("name") / Gauge("name", / Histogram("name",
	callRE := regexp.MustCompile(`\b(Counter|Gauge|Histogram)\("([^"]*)"\s*([,)+])`)

	checked := 0
	registered := map[string]bool{} // literal names and dynamic prefixes
	err = walkProductionGo(func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range callRE.FindAllStringSubmatch(string(src), -1) {
			name, sep := m[2], m[3]
			checked++
			registered[name] = true
			if sep == "+" {
				// Dynamic family: lint the prefix, require a prefix entry.
				trimmed := strings.TrimSuffix(name, "_")
				if !nameRE.MatchString(trimmed) {
					t.Errorf("%s: dynamic metric prefix %q is not ^[a-z][a-z0-9_]*$", path, name)
				}
				if !strings.Contains(inv, "`"+name) {
					t.Errorf("%s: dynamic metric family %q* not documented in metrics.md", path, name)
				}
				continue
			}
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q does not match ^[a-z][a-z0-9_]*$", path, name)
			}
			if !strings.Contains(inv, "`"+name+"`") {
				t.Errorf("%s: metric %q not documented in metrics.md", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("lint found no metric registrations — extraction regex rotted")
	}

	// Reverse direction: every inventory row must resolve to a registration.
	rowRE := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	rows := rowRE.FindAllStringSubmatch(inv, -1)
	if len(rows) == 0 {
		t.Fatal("metrics.md has no inventory rows — row regex rotted")
	}
	for _, m := range rows {
		name := m[1]
		if prefix, _, dynamic := strings.Cut(name, "<"); dynamic {
			if !registered[prefix] {
				t.Errorf("metrics.md row %q: no registration builds the family prefix %q", name, prefix)
			}
			continue
		}
		if !registered[name] {
			t.Errorf("metrics.md row %q: no production code registers it", name)
		}
	}
}

// walkProductionGo calls fn with the path of every non-test Go file in the
// tree, skipping dot-directories (.git, build caches) and testdata.
func walkProductionGo(fn func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		return fn(path)
	})
}
