package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunLintReportsFindings(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p/p.go": `package p

import "math/rand"

func Draw() float64 { return rand.Float64() }
`,
	})
	var out strings.Builder
	n, err := runLint(&out, root, []string{"./..."}, "text")
	if err != nil {
		t.Fatalf("runLint: %v", err)
	}
	if n != 1 {
		t.Fatalf("got %d findings, want 1\n%s", n, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "p.go:3:8: norand:") {
		t.Errorf("diagnostic lacks file:line:col and rule:\n%s", got)
	}
}

func TestRunLintCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p/p.go": "package p\n\n// Two adds two.\nfunc Two() int { return 2 }\n",
	})
	var out strings.Builder
	n, err := runLint(&out, root, []string{"./..."}, "text")
	if err != nil {
		t.Fatalf("runLint: %v", err)
	}
	if n != 0 || out.Len() != 0 {
		t.Fatalf("clean module produced findings:\n%s", out.String())
	}
}

func TestRunLintBadRoot(t *testing.T) {
	if _, err := runLint(&strings.Builder{}, t.TempDir(), []string{"./..."}, "text"); err == nil {
		t.Fatal("expected error for a directory without go.mod")
	}
}

func TestPrintRules(t *testing.T) {
	var out strings.Builder
	printRules(&out)
	for _, rule := range []string{"norand", "nowallclock", "floatcmp", "mapiter", "globalstate"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("rule list missing %s:\n%s", rule, out.String())
		}
	}
}
