// Package lint is the repository's custom static-analysis suite. It
// enforces the determinism and numerics invariants the paper
// reproduction depends on (see DESIGN.md, "Determinism contract"):
// every stochastic choice flows through internal/rng, deterministic
// packages never read the wall clock, floating-point equality goes
// through the epsilon helpers, map iteration never leaks ordering into
// output, mutable package state stays out of the protocol, and the
// experiments and cmd layers drive the protocol through
// internal/engine rather than a concrete driver.
//
// A second family machine-checks the concurrency contract the live
// system depends on (DESIGN.md §8): mutex-guard annotations
// (`// guarded by <mu>`) are enforced at every field access, every
// goroutine must have a provable shutdown path, errors on the
// conservation-critical send/encode/absorb paths may not be dropped,
// and channel ownership annotations (`// closed by <func>`) pin the
// one function allowed to close a channel.
//
// The suite is built purely on the standard library's go/ast, go/parser,
// go/token and go/types, keeping the module dependency-free: Load asks
// the go command for the packages and their compiled export data and
// type-checks each package's files against it (see Load), so `go` must
// be on PATH. cmd/distclass-lint is the CLI front end; `make lint` runs
// it over the whole module.
//
// # Suppressing a finding
//
// A finding can be suppressed with an inline directive on the offending
// line or on the line directly above it:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory: an allow without a justification is itself
// reported. Suppressions are deliberate, reviewable exceptions — the
// reason string is for the reviewer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form
// consumed by editors and CI log scanners.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is a single lint rule.
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and
	// //lint:allow directives.
	Name() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
	// Check inspects one type-checked unit and reports findings. It
	// must not mutate the unit.
	Check(u *Unit) []Diagnostic
}

// All returns the full analyzer suite in stable order: the
// determinism/numerics family (PR 2) followed by the
// concurrency/protocol-contract family.
func All() []Analyzer {
	return []Analyzer{
		NoRand{},
		NoWallClock{},
		FloatCmp{},
		MapIter{},
		GlobalState{},
		Layering{},
		LockGuard{},
		GoroLifecycle{},
		ErrConserve{},
		ChanMisuse{},
	}
}

// directive is a parsed //lint:allow comment.
type directive struct {
	rule   string
	reason string
	line   int
	// standalone is true when the comment is alone on its line; only
	// standalone directives reach forward to the next line, so a
	// trailing directive cannot accidentally waive its neighbor below.
	standalone bool
}

const directivePrefix = "lint:allow"

// directives extracts every //lint:allow comment from the file, keyed
// by line. Malformed directives (missing rule or reason) are returned
// as diagnostics so they cannot silently suppress nothing.
func directives(fset *token.FileSet, f *ast.File) (map[int][]directive, []Diagnostic) {
	var diags []Diagnostic
	out := make(map[int][]directive)
	code := codeLines(fset, f)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
			if len(fields) < 2 {
				diags = append(diags, Diagnostic{
					Pos:     pos,
					Rule:    "directive",
					Message: "malformed //lint:allow: want `//lint:allow <rule> <reason>`",
				})
				continue
			}
			out[pos.Line] = append(out[pos.Line], directive{
				rule:       fields[0],
				reason:     strings.Join(fields[1:], " "),
				line:       pos.Line,
				standalone: !code[pos.Line],
			})
		}
	}
	return out, diags
}

// Run applies every analyzer to every unit, drops findings suppressed
// by a //lint:allow directive on the same or the preceding line, and
// returns the remainder sorted by position.
func Run(units []*Unit, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, u := range units {
		allowed := make(map[string]map[int][]directive) // filename -> line -> directives
		for _, f := range u.Files {
			ds, bad := directives(u.Fset, f)
			diags = append(diags, bad...)
			name := u.Fset.Position(f.Pos()).Filename
			allowed[name] = ds
		}
		for _, a := range analyzers {
			for _, d := range a.Check(u) {
				if suppressed(allowed[d.Pos.Filename], a.Name(), d.Pos.Line) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by position, then rule.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// suppressed reports whether a finding for rule at line is covered by a
// directive on the same line, or a standalone directive on the line
// directly above.
func suppressed(byLine map[int][]directive, rule string, line int) bool {
	for _, d := range byLine[line] {
		if d.rule == rule {
			return true
		}
	}
	for _, d := range byLine[line-1] {
		if d.rule == rule && d.standalone {
			return true
		}
	}
	return false
}

// codeLines returns the set of lines that hold at least one
// non-comment token, used to classify directives as trailing or
// standalone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}
