package lint

import (
	"crypto/sha256"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
)

// Options configures LintModule.
type Options struct {
	// Analyzers is the rule set to run; nil means All().
	Analyzers []Analyzer
	// CacheDir enables the content-hash diagnostic cache when non-empty:
	// a directory whose files (and transitive module-local imports) are
	// unchanged since a previous run with the same analyzer set and
	// toolchain is served from disk without type-checking.
	CacheDir string
}

// Result is the outcome of a LintModule run.
type Result struct {
	// Module is the module path from go.mod.
	Module string
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Dirs is the number of package directories analyzed.
	Dirs int
	// CacheHits counts directories served from the diagnostic cache.
	CacheHits int
}

// LintModule is the incrementally cached front end over the suite: it
// expands patterns to package directories, hashes each directory
// (contents plus transitive module-local imports), serves unchanged
// directories from the cache, and type-checks the rest one by one
// through one shared source importer. The per-directory results are
// identical to a Load + Run over the same patterns.
func LintModule(root string, patterns []string, opts Options) (*Result, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}

	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}

	var cache *diagCache
	if opts.CacheDir != "" {
		cache, err = openCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
	}

	// Hash every selected directory up front: the closure hash of a
	// directory needs the state of the directories it imports, whether
	// or not those were selected by the patterns.
	keys := make([]string, len(dirs))
	if cache != nil {
		states := make(map[string]*dirState, len(dirs))
		for _, dir := range dirs {
			st, err := scanDir(root, module, dir)
			if err != nil {
				return nil, fmt.Errorf("lint: hashing %s: %w", dir, err)
			}
			states[st.rel] = st
		}
		// Imported directories outside the selected set still influence
		// dependents; hash them on demand. An unreadable dependency
		// simply contributes an empty hash.
		var ensure func(rel string)
		ensure = func(rel string) {
			if states[rel] != nil {
				return
			}
			st, err := scanDir(root, module, filepath.Join(root, filepath.FromSlash(rel)))
			if err != nil || st == nil {
				return
			}
			states[rel] = st
			for _, imp := range st.imports {
				ensure(imp)
			}
		}
		for _, dir := range dirs {
			rel := relOf(root, dir)
			for _, imp := range states[rel].imports {
				ensure(imp)
			}
		}
		memo := make(map[string][sha256.Size]byte)
		for i, dir := range dirs {
			rel := relOf(root, dir)
			closure := closureHash(rel, states, memo, make(map[string]bool))
			keys[i] = cacheKey(root, module, rel, analyzers, closure)
		}
	}

	fset := token.NewFileSet()
	imp := &moduleFallbackImporter{
		imp:    importer.ForCompiler(fset, "source", nil),
		module: module,
		cache:  make(map[string]*types.Package),
	}

	res := &Result{Module: module, Dirs: len(dirs)}
	for i, dir := range dirs {
		if cache != nil {
			if diags, ok := cache.get(keys[i]); ok {
				res.Diagnostics = append(res.Diagnostics, diags...)
				res.CacheHits++
				continue
			}
		}
		units, err := loadDir(fset, imp, root, module, dir)
		if err != nil {
			return nil, err
		}
		diags := Run(units, analyzers)
		res.Diagnostics = append(res.Diagnostics, diags...)
		if cache != nil {
			// A failed write only costs the next run a recheck.
			_ = cache.put(keys[i], diags)
		}
	}
	sortDiagnostics(res.Diagnostics)
	return res, nil
}

// relOf returns dir relative to root in slash form ("." for the root).
func relOf(root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return filepath.ToSlash(dir)
	}
	return filepath.ToSlash(rel)
}
