// Command distclass-lint runs the repository's custom static-analysis
// suite (package internal/lint): the determinism/numerics analyzers
// plus the concurrency-contract family (lockguard, gorolifecycle,
// errconserve, chanmisuse).
//
// Usage:
//
//	distclass-lint [-list] [-list-allows] [-format text|json] [pattern ...]
//
// Patterns are module-relative directories, optionally ending in /...
// for a recursive walk; the default is ./... from the enclosing module
// root, nested modules included. The go command selects and compiles
// the packages (`go list -export`), so `go` must be on PATH; the suite
// type-checks each package's files against the compiler's export data.
//
// With -format text (the default) findings print as
// file:line:col: rule: message, one per line. With -format json a
// single report object is emitted:
//
//	{"module": ..., "count": N, "dirs": D,
//	 "findings": [{"file","line","col","rule","message"}, ...]}
//
// The exit status is 1 when there are findings, 2 on usage or load
// errors — suitable for CI gates and editor integration.
//
// A finding is suppressed by an inline escape hatch on the offending
// line or alone on the line above:
//
//	//lint:allow <rule> <reason>
//
// -list-allows audits those escape hatches: it re-runs the analysis
// without suppression and reports every directive as used or STALE
// (suppressing nothing — delete it). Run `distclass-lint -list` for
// the rule set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"distclass/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distclass-lint: ")

	list := flag.Bool("list", false, "print the analyzer names and docs, then exit")
	listAllows := flag.Bool("list-allows", false, "audit //lint:allow directives: report each as used or STALE, then exit")
	format := flag.String("format", "text", "output format: text or json")
	flag.Parse()

	if *format != "text" && *format != "json" {
		log.Printf("unknown -format %q: want text or json", *format)
		os.Exit(2)
	}
	if *list {
		printRules(os.Stdout)
		return
	}

	root, err := moduleRoot()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *listAllows {
		if err := runListAllows(os.Stdout, root, patterns, *format); err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return
	}

	n, err := runLint(os.Stdout, root, patterns, *format)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if n > 0 {
		if *format != "json" {
			log.Printf("%d finding(s)", n)
		}
		os.Exit(1)
	}
}

// runLint runs the suite over the patterns and writes findings to w in
// the requested format, returning the finding count.
func runLint(w io.Writer, root string, patterns []string, format string) (int, error) {
	units, err := lint.Load(root, patterns)
	if err != nil {
		return 0, err
	}
	diags := lint.Run(units, lint.All())
	if format == "json" {
		return len(diags), writeJSON(w, root, units, diags)
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}

// printRules writes one "name: doc" line per analyzer.
func printRules(w io.Writer) {
	for _, a := range lint.All() {
		fmt.Fprintf(w, "%-14s %s\n", a.Name(), a.Doc())
	}
}

// jsonFinding is one diagnostic in the -format json report. File is
// module-root-relative so reports are stable across checkouts.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonReport is the -format json payload.
type jsonReport struct {
	Module   string        `json:"module"`
	Count    int           `json:"count"`
	Dirs     int           `json:"dirs"`
	Findings []jsonFinding `json:"findings"`
}

// writeJSON renders the findings over the loaded units as a single
// JSON object. Dirs counts the package directories analyzed.
func writeJSON(w io.Writer, root string, units []*lint.Unit, diags []lint.Diagnostic) error {
	rep := jsonReport{Count: len(diags), Findings: []jsonFinding{}}
	for i, u := range units {
		rep.Module = u.Module
		if i == 0 || u.Rel != units[i-1].Rel {
			rep.Dirs++
		}
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			File:    relPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// jsonAllow is one directive in the -list-allows -format json report.
type jsonAllow struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
	Used   bool   `json:"used"`
}

// runListAllows loads the patterns and reports every directive; usage
// tracking needs the raw, unsuppressed findings.
func runListAllows(w io.Writer, root string, patterns []string, format string) error {
	units, err := lint.Load(root, patterns)
	if err != nil {
		return err
	}
	allows := lint.RunAllows(units, lint.All())
	if format == "json" {
		out := []jsonAllow{}
		for _, a := range allows {
			out = append(out, jsonAllow{
				File:   relPath(root, a.Pos.Filename),
				Line:   a.Pos.Line,
				Rule:   a.Rule,
				Reason: a.Reason,
				Used:   a.Used,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	stale := 0
	for _, a := range allows {
		status := "used "
		if !a.Used {
			status = "STALE"
			stale++
		}
		fmt.Fprintf(w, "%s:%d: %s %-13s %s\n", relPath(root, a.Pos.Filename), a.Pos.Line, status, a.Rule, a.Reason)
	}
	fmt.Fprintf(w, "%d allow(s), %d stale\n", len(allows), stale)
	return nil
}

// relPath renders path relative to root when possible.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}

// moduleRoot walks up from the working directory to the nearest go.mod:
// the root whose patterns the tool lints and to which it reports paths.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
