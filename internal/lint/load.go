package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked body of files that the analyzers inspect: a
// package together with its in-package test files, or the external
// _test package of a directory. Test files are analyzed with the same
// rules as production code unless a rule documents otherwise.
type Unit struct {
	// Fset positions every file in every unit of a load.
	Fset *token.FileSet
	// Files are the parsed files of the unit, sorted by filename.
	Files []*ast.File
	// Rel is the unit directory relative to the lint root, always
	// "/"-separated ("." for the root package), also inside a nested
	// module. Rules match on Rel so the suite works identically on the
	// fixture module used in tests.
	Rel string
	// Module is the module path from the lint root's go.mod; rules
	// that inspect module-local import paths join it with a
	// root-relative directory.
	Module string
	// Pkg and Info carry the go/types results. On type errors the
	// info may be partial; analyzers must tolerate missing entries.
	Pkg  *types.Package
	Info *types.Info
	// TypeErrors collects type-checker complaints. The loader does
	// not fail on them: the build gate catches real type errors, and
	// the linter still reports what it can see.
	TypeErrors []error
}

// InDir reports whether the unit lives in the given root-relative
// directory (e.g. "internal/rng").
func (u *Unit) InDir(rel string) bool { return u.Rel == rel }

// IsTestFile reports whether the file containing pos is a _test.go file.
func (u *Unit) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(u.Fset.Position(pos).Filename, "_test.go")
}

// Load parses and type-checks the packages selected by patterns under
// the module rooted at root (the directory containing go.mod). A
// pattern is a root-relative directory, optionally ending in "/..."
// for a recursive walk; "./..." selects the whole tree.
//
// The go command does the package selection and the compiling: Load
// runs `go list -e -export -deps -test -json` once per module (the
// root module, and each module nested below it that a pattern
// reaches), parses each selected package's files, and type-checks
// them against the compiler's export data for their imports. So `go`
// must be on PATH, and files excluded by build constraints are not
// linted. A package with in-package tests is checked as its test
// variant, and its external _test package, if any, as a unit of its
// own that imports that variant. Units come sorted by directory.
func Load(root string, patterns []string) ([]*Unit, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	mods, err := nestedModules(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var units []*Unit
	for _, mod := range append([]string{"."}, mods...) {
		pats := modulePatterns(mod, mods, patterns)
		if len(pats) == 0 {
			continue
		}
		pkgs, err := goList(filepath.Join(abs, mod), pats)
		if err != nil {
			return nil, err
		}
		us, err := checkPackages(fset, root, abs, module, pkgs)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].Rel != units[j].Rel {
			return units[i].Rel < units[j].Rel
		}
		return units[i].Pkg.Path() < units[j].Pkg.Path()
	})
	return units, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// nestedModules returns the root-relative directories below root that
// hold a go.mod of their own, in walk order. `go list ./...` stops at
// such a directory, so Load lists each of them separately. Directories
// named testdata or vendor and names starting with "." or "_" are
// skipped, as the go command skips them.
func nestedModules(root string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			mods = append(mods, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return mods, nil
}

// modulePatterns translates the root-relative patterns into the go
// list patterns for the module at root-relative directory mod ("." for
// the root module), given all nested modules. A pattern belongs to the
// innermost module containing its directory; a recursive pattern also
// selects the whole of every nested module below its directory.
func modulePatterns(mod string, mods, patterns []string) []string {
	var out []string
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		dir, recursive := strings.CutSuffix(p, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
		owner := "."
		for _, m := range mods { // parents come before their children
			if within(dir, m) {
				owner = m
			}
		}
		switch {
		case owner == mod:
			rel := "."
			if dir != mod {
				rel = strings.TrimPrefix(dir, mod+"/")
			}
			if recursive {
				rel = path.Join(rel, "...")
			}
			out = append(out, "./"+rel)
		case recursive && mod != "." && within(mod, dir):
			out = append(out, "./...")
		}
	}
	return out
}

// within reports whether the root-relative directory dir is base or
// lies below it.
func within(dir, base string) bool {
	return base == "." || dir == base || strings.HasPrefix(dir, base+"/")
}

// listedPackage is the part of a `go list -json` record that Load
// reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	ForTest    string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -test -json` on the patterns in
// the module directory dir. Every listed package, dependencies and
// test variants included, comes back with the path of its export data.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkPackages type-checks the units among one go list run's
// packages: each selected package, as its in-package test variant
// ("p [p.test]") where it has one, and each external test package
// ("p_test [p.test]"). Dependencies, other packages' test
// recompilations and the generated test mains are only import sources.
func checkPackages(fset *token.FileSet, root, abs, module string, pkgs []*listedPackage) ([]*Unit, error) {
	exports := make(map[string]string, len(pkgs))
	tested := make(map[string]bool)  // packages with a test binary
	variant := make(map[string]bool) // packages with a "p [p.test]" variant
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
		if p.ForTest != "" {
			tested[p.ForTest] = true
			variant[p.ForTest] = variant[p.ForTest] || basePath(p.ImportPath) == p.ForTest
		}
	}
	var units []*Unit
	for _, p := range pkgs {
		path := basePath(p.ImportPath)
		testMain := strings.HasSuffix(path, ".test") && tested[strings.TrimSuffix(path, ".test")]
		switch {
		case p.DepOnly, p.ForTest == "" && (variant[path] || testMain):
			continue
		case p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue
		}
		if len(p.GoFiles) == 0 {
			if p.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
			}
			continue
		}
		rel, err := filepath.Rel(abs, p.Dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		names := append([]string(nil), p.GoFiles...)
		sort.Strings(names)
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(root, rel, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		importMap := p.ImportMap
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if id, ok := importMap[path]; ok {
				path = id
			}
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		})
		units = append(units, check(fset, imp, path, filepath.ToSlash(rel), module, files))
	}
	return units, nil
}

// basePath strips the " [p.test]" suffix go list gives test variants.
func basePath(importPath string) string {
	path, _, _ := strings.Cut(importPath, " ")
	return path
}

// check type-checks one unit, tolerating type errors.
func check(fset *token.FileSet, imp types.Importer, path, rel, module string, files []*ast.File) *Unit {
	u := &Unit{
		Fset:   fset,
		Files:  files,
		Rel:    rel,
		Module: module,
		Info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	// The returned error repeats the first entry of TypeErrors; partial
	// results are still usable, so it is deliberately not propagated.
	u.Pkg, _ = conf.Check(path, fset, files, u.Info)
	return u
}
