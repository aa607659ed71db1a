package lint

import (
	"os"
	"path/filepath"
	"testing"
)

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
