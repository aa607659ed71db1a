package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLintModuleMatchesRun pins the per-directory front end to the
// reference: LintModule over the fixture module must produce exactly
// the diagnostics of Load + Run.
func TestLintModuleMatchesRun(t *testing.T) {
	want := loadFixtures(t)
	res, err := LintModule(fixtureRoot, []string{"./..."}, Options{})
	if err != nil {
		t.Fatalf("LintModule: %v", err)
	}
	if res.Module != "fixmod" {
		t.Errorf("module = %q, want fixmod", res.Module)
	}
	if res.Dirs == 0 || res.CacheHits != 0 {
		t.Errorf("dirs = %d, cache hits = %d; want dirs > 0 and no hits without a cache", res.Dirs, res.CacheHits)
	}
	assertSameDiags(t, res.Diagnostics, want)
}

// TestLintModuleCache runs twice against one cache: the second run must
// be served entirely from it, with identical diagnostics.
func TestLintModuleCache(t *testing.T) {
	opts := Options{CacheDir: t.TempDir()}
	cold, err := LintModule(fixtureRoot, []string{"./..."}, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.CacheHits != 0 {
		t.Errorf("cold run had %d cache hits, want 0", cold.CacheHits)
	}
	warm, err := LintModule(fixtureRoot, []string{"./..."}, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.CacheHits != warm.Dirs {
		t.Errorf("warm run hit %d of %d dirs, want all", warm.CacheHits, warm.Dirs)
	}
	assertSameDiags(t, warm.Diagnostics, cold.Diagnostics)
}

// TestLintModuleCacheInvalidation edits a dependency and checks both
// the edited directory and its importer are re-analyzed: the cache key
// hashes the transitive module-local import closure, not just the
// directory's own files.
func TestLintModuleCacheInvalidation(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nimport _ \"tmpmod/b\"\n\n// A is exported.\nfunc A() int { return 1 }\n")
	write("b/b.go", "package b\n\n// B is exported.\nfunc B() int { return 2 }\n")

	opts := Options{CacheDir: t.TempDir()}
	if _, err := LintModule(root, []string{"./..."}, opts); err != nil {
		t.Fatalf("prime: %v", err)
	}
	warm, err := LintModule(root, []string{"./..."}, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Dirs != 2 || warm.CacheHits != 2 {
		t.Fatalf("warm: %d hits of %d dirs, want 2 of 2", warm.CacheHits, warm.Dirs)
	}

	// Introduce a norand finding in b: b's own hash changes, and a's
	// closure hash changes with it.
	write("b/b.go", "package b\n\nimport \"math/rand\"\n\n// B is exported.\nfunc B() float64 { return rand.Float64() }\n")
	edited, err := LintModule(root, []string{"./..."}, opts)
	if err != nil {
		t.Fatalf("edited: %v", err)
	}
	if edited.CacheHits != 0 {
		t.Errorf("after editing b, %d dirs were served from cache; want 0 (a depends on b)", edited.CacheHits)
	}
	if len(edited.Diagnostics) != 1 || edited.Diagnostics[0].Rule != "norand" {
		t.Fatalf("edited diagnostics = %v, want one norand finding", edited.Diagnostics)
	}

	// A third run is fully cached again, finding included.
	again, err := LintModule(root, []string{"./..."}, opts)
	if err != nil {
		t.Fatalf("again: %v", err)
	}
	if again.CacheHits != 2 {
		t.Errorf("re-run after edit hit %d of 2 dirs, want 2", again.CacheHits)
	}
	assertSameDiags(t, again.Diagnostics, edited.Diagnostics)
}

// assertSameDiags compares two diagnostic lists by rendered form.
func assertSameDiags(t *testing.T, got, want []Diagnostic) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d\ngot: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("diagnostic %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestRunAllows checks usage tracking: the fixture allows are all used
// (TestAnalyzers enforces a suppression case per rule), and a freshly
// added directive that suppresses nothing reports stale.
func TestRunAllows(t *testing.T) {
	units, err := Load(fixtureRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	allows := RunAllows(units, All())
	if len(allows) == 0 {
		t.Fatal("no allows found in fixtures")
	}
	byRule := make(map[string]bool)
	for _, a := range allows {
		if !a.Used {
			t.Errorf("fixture allow reported stale: %s:%d %s (%s)", a.Pos.Filename, a.Pos.Line, a.Rule, a.Reason)
		}
		byRule[a.Rule] = true
	}
	for _, rule := range []string{"lockguard", "gorolifecycle", "errconserve", "chanmisuse"} {
		if !byRule[rule] {
			t.Errorf("no allow directive for %s in fixtures", rule)
		}
	}
}

// TestRunAllowsStale checks a directive with no matching finding is
// reported unused.
func TestRunAllowsStale(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\n// Two adds two.\nfunc Two() int {\n\t//lint:allow norand nothing random here at all\n\treturn 2\n}\n"
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	units, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	allows := RunAllows(units, All())
	if len(allows) != 1 {
		t.Fatalf("got %d allows, want 1: %v", len(allows), allows)
	}
	if allows[0].Used {
		t.Errorf("allow with no finding reported used: %+v", allows[0])
	}
	if allows[0].Rule != "norand" || allows[0].Reason != "nothing random here at all" {
		t.Errorf("allow fields wrong: %+v", allows[0])
	}
}
