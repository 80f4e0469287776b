package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

func TestLoad(t *testing.T) {
	res, err := load.Load(".", []string{"repro/internal/basket"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["repro/internal/basket"] {
		t.Errorf("targets = %v, want repro/internal/basket", res.Targets)
	}
	// The module root holds the go.mod declaring this module, whatever
	// the checkout directory is called.
	gomod, err := os.ReadFile(filepath.Join(res.ModuleDir, "go.mod"))
	if err != nil {
		t.Fatalf("module dir %q: %v", res.ModuleDir, err)
	}
	if !strings.HasPrefix(string(gomod), "module repro\n") {
		t.Errorf("module dir %q: go.mod does not declare module repro", res.ModuleDir)
	}
	// Dependency order: every in-module import of a package must appear
	// before the package itself.
	seen := map[string]bool{}
	byPath := map[string]bool{}
	for _, p := range res.Pkgs {
		byPath[p.Path] = true
	}
	for _, p := range res.Pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Files) == 0 {
			t.Fatalf("%s: incompletely loaded", p.Path)
		}
		for _, imp := range p.Types.Imports() {
			if byPath[imp.Path()] && !seen[imp.Path()] {
				t.Errorf("%s: module import %s not loaded before importer", p.Path, imp.Path())
			}
		}
		seen[p.Path] = true
	}
}
