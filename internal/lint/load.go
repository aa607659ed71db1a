package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
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
	// Rel is the unit directory relative to the module root, always
	// "/"-separated ("." for the root package). Rules match on Rel so
	// the suite works identically on the fixture module used in tests.
	Rel string
	// Module is the module path from go.mod; rules that inspect
	// module-local import paths join it with a module-relative
	// directory.
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

// InDir reports whether the unit lives in the given module-relative
// directory (e.g. "internal/rng").
func (u *Unit) InDir(rel string) bool { return u.Rel == rel }

// IsTestFile reports whether the file containing pos is a _test.go file.
func (u *Unit) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(u.Fset.Position(pos).Filename, "_test.go")
}

// Load parses and type-checks the packages selected by patterns under
// the module rooted at root (the directory containing go.mod). A
// pattern is a module-relative directory, optionally ending in "/..."
// for a recursive walk; "./..." selects the whole module. Directories
// named testdata or vendor and names starting with "." or "_" are
// skipped, matching go tool conventions.
//
// Module-local imports are resolved by the standard library's source
// importer, which requires the process working directory to be inside
// the module when the analyzed code imports module-local packages.
func Load(root string, patterns []string) ([]*Unit, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleFallbackImporter{
		imp:    importer.ForCompiler(fset, "source", nil),
		fset:   fset,
		root:   root,
		module: module,
		cache:  make(map[string]*types.Package),
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := loadDir(fset, imp, root, module, dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
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

// expand resolves the patterns into a sorted, de-duplicated list of
// directories containing Go files.
func expand(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
		}
		if p == "" {
			p = "."
		}
		dir := filepath.Join(root, filepath.FromSlash(p))
		if !recursive {
			if hasGoFiles(dir) {
				seen[dir] = true
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				seen[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walking %s: %w", dir, err)
		}
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && goFileName(e.Name()) {
			return true
		}
	}
	return false
}

// goFileName reports whether name is a Go file the loader should parse.
func goFileName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// loadDir parses one directory and type-checks up to two units: the
// package plus its in-package test files, and the external _test
// package if present.
func loadDir(fset *token.FileSet, imp types.Importer, root, module, dir string) ([]*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && goFileName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var pkgFiles, extFiles []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			extFiles = append(extFiles, f)
		} else {
			pkgFiles = append(pkgFiles, f)
		}
	}

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	rel = filepath.ToSlash(rel)
	path := module
	if rel != "." {
		path = module + "/" + rel
	}

	var units []*Unit
	if len(pkgFiles) > 0 {
		units = append(units, check(fset, imp, path, rel, module, pkgFiles))
	}
	if len(extFiles) > 0 {
		units = append(units, check(fset, imp, path+"_test", rel, module, extFiles))
	}
	return units, nil
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

// moduleFallbackImporter wraps the source importer: a module-local
// import the importer cannot resolve (the process working directory is
// outside the analyzed module, as when the test suite lints its
// fixture module) is type-checked from its non-test files under the
// module root, and degrades to an empty placeholder package where that
// fails instead of failing the whole unit. Import correctness is the
// build gate's job; the linter only needs the import declarations and
// whatever types do resolve.
type moduleFallbackImporter struct {
	imp          types.Importer
	fset         *token.FileSet
	root, module string
	cache        map[string]*types.Package
}

func (m *moduleFallbackImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

func (m *moduleFallbackImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	var pkg *types.Package
	var err error
	if from, ok := m.imp.(types.ImporterFrom); ok {
		pkg, err = from.ImportFrom(path, dir, mode)
	} else {
		pkg, err = m.imp.Import(path)
	}
	if err == nil {
		return pkg, nil
	}
	if path != m.module && !strings.HasPrefix(path, m.module+"/") {
		return nil, err
	}
	if p, ok := m.cache[path]; ok {
		return p, nil
	}
	p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	p.MarkComplete()
	m.cache[path] = p // also breaks import cycles
	src := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(path, m.module)))
	entries, err := os.ReadDir(src)
	if err != nil {
		return p, nil
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !goFileName(e.Name()) || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(src, e.Name()), nil, 0)
		if err != nil {
			return p, nil
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	if pkg, err := conf.Check(path, m.fset, files, nil); err == nil {
		m.cache[path] = pkg
		return pkg, nil
	}
	return p, nil
}
