package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureRoot is a miniature module mirroring the real repo's layout:
// the directories the rules special-case (internal/rng, internal/vec,
// internal/metrics, internal/core) plus an ordinary package ("gossip")
// where every rule applies, with an external test package, and a
// nested module under cmd. Expected findings are annotated in the
// fixtures themselves with trailing `// want <rule>` comments.
const fixtureRoot = "testdata/src"

// wantRe matches a finding annotation in a fixture file.
var wantRe = regexp.MustCompile(`// want ([a-z]+)$`)

// fixtureLoad holds the one fixture analysis the tests share: each
// load runs go list over both fixture modules, so the tests load once.
var fixtureLoad struct {
	once  sync.Once
	diags []Diagnostic
	errs  []string
}

// loadFixtures loads and analyzes the fixture module once per test run.
func loadFixtures(t *testing.T) []Diagnostic {
	t.Helper()
	fixtureLoad.once.Do(func() {
		units, err := Load(fixtureRoot, []string{"./..."})
		if err != nil {
			fixtureLoad.errs = append(fixtureLoad.errs, fmt.Sprintf("Load: %v", err))
			return
		}
		if len(units) == 0 {
			fixtureLoad.errs = append(fixtureLoad.errs, "Load returned no units")
			return
		}
		for _, u := range units {
			for _, terr := range u.TypeErrors {
				fixtureLoad.errs = append(fixtureLoad.errs,
					fmt.Sprintf("fixture type error (fixtures must compile): %v", terr))
			}
		}
		fixtureLoad.diags = Run(units, All())
	})
	for _, msg := range fixtureLoad.errs {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}
	return fixtureLoad.diags
}

// wantFindings scans the fixture tree for `// want <rule>` annotations
// and returns the expected "file:line" set per rule.
func wantFindings(t *testing.T) map[string]map[string]bool {
	t.Helper()
	want := make(map[string]map[string]bool)
	err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(strings.TrimRight(sc.Text(), " \t"))
			if m == nil {
				continue
			}
			rel, err := filepath.Rel(fixtureRoot, path)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), line)
			if want[m[1]] == nil {
				want[m[1]] = make(map[string]bool)
			}
			want[m[1]][key] = true
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return want
}

// TestAnalyzers checks every analyzer against the fixture module: each
// annotated line must be reported (true positives), nothing else may be
// reported (true negatives and //lint:allow suppressions), and each rule
// must have at least one positive and one suppression fixture.
func TestAnalyzers(t *testing.T) {
	diags := loadFixtures(t)
	want := wantFindings(t)

	got := make(map[string]map[string]bool)
	for _, d := range diags {
		rel, err := filepath.Rel(fixtureRoot, d.Pos.Filename)
		if err != nil {
			t.Fatalf("diagnostic outside fixture root: %v", d)
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line)
		if got[d.Rule] == nil {
			got[d.Rule] = make(map[string]bool)
		}
		got[d.Rule][key] = true
	}

	for _, a := range All() {
		rule := a.Name()
		t.Run(rule, func(t *testing.T) {
			if len(want[rule]) == 0 {
				t.Fatalf("no // want %s annotations in fixtures; every rule needs positive coverage", rule)
			}
			for key := range want[rule] {
				if !got[rule][key] {
					t.Errorf("missing finding %s at %s", rule, key)
				}
			}
			for key := range got[rule] {
				if !want[rule][key] {
					t.Errorf("unexpected finding %s at %s", rule, key)
				}
			}
			if !fixtureHasAllow(t, rule) {
				t.Errorf("fixtures have no //lint:allow %s suppression case", rule)
			}
		})
	}
}

// fixtureHasAllow reports whether some fixture file contains a
// well-formed //lint:allow for the rule.
func fixtureHasAllow(t *testing.T, rule string) bool {
	t.Helper()
	re := regexp.MustCompile(`//lint:allow ` + rule + ` \S`)
	found := false
	err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if re.Match(data) {
			found = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return found
}

// TestMalformedDirective checks that an allow without a reason is
// reported and suppresses nothing (the floatcmp finding on the next
// line must survive; asserted by TestAnalyzers' want annotations).
func TestMalformedDirective(t *testing.T) {
	diags := loadFixtures(t)
	var inDirectiveFixture []Diagnostic
	for _, d := range diags {
		if d.Rule == "directive" {
			if filepath.Base(d.Pos.Filename) != "directive.go" {
				t.Errorf("directive finding outside directive.go: %v", d)
			}
			inDirectiveFixture = append(inDirectiveFixture, d)
		}
	}
	if len(inDirectiveFixture) != 1 {
		t.Fatalf("got %d malformed-directive findings, want 1: %v", len(inDirectiveFixture), inDirectiveFixture)
	}
}

// TestDiagnosticString pins the file:line:col rendering CI greps for.
func TestDiagnosticString(t *testing.T) {
	diags := loadFixtures(t)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	re := regexp.MustCompile(`^.+\.go:\d+:\d+: [a-z]+: .+$`)
	if !re.MatchString(s) {
		t.Errorf("diagnostic %q does not match file:line:col: rule: message", s)
	}
}

// TestRunSorted checks Run returns diagnostics in position order.
func TestRunSorted(t *testing.T) {
	diags := loadFixtures(t)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}
