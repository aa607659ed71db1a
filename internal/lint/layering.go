package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// layeredDirs are the directories that must stay transport-agnostic:
// experiment harnesses and command front ends drive the protocol
// exclusively through internal/engine, which owns backend selection
// and capability validation. A direct driver import re-couples the
// layer to one transport and silently bypasses the -backend contract.
//
//lint:allow globalstate immutable rule table, written only at init
var layeredDirs = []string{"internal/experiments", "cmd"}

// driverDirs are the concrete protocol drivers the layered directories
// may not import directly.
//
//lint:allow globalstate immutable rule table, written only at init
var driverDirs = []string{"internal/sim", "internal/livenet"}

// Layering reports direct imports of internal/sim or internal/livenet
// from packages under internal/experiments or cmd — those layers must
// reach the protocol through internal/engine's Transport abstraction —
// and non-test calls there to core.NewNode: a layer that builds its own
// nodes wires its own executor and convergence loop beside the
// engine's. Test files may build nodes for white-box driver checks.
type Layering struct{}

// Name implements Analyzer.
func (Layering) Name() string { return "layering" }

// Doc implements Analyzer.
func (Layering) Doc() string {
	return "experiments and cmd packages drive the protocol through internal/engine, never internal/sim, internal/livenet or core.NewNode directly"
}

// Check implements Analyzer.
func (Layering) Check(u *Unit) []Diagnostic {
	if !inAnyDir(u.Rel, layeredDirs) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range u.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, dir := range driverDirs {
				if path != u.Module+"/"+dir {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     u.Fset.Position(imp.Pos()),
					Rule:    "layering",
					Message: "import of " + path + " from " + u.Rel + "; drive the protocol through internal/engine instead",
				})
			}
		}
		if u.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && u.isNewNode(call) {
				diags = append(diags, Diagnostic{
					Pos:     u.Fset.Position(call.Pos()),
					Rule:    "layering",
					Message: "core.NewNode call in " + u.Rel + "; run the nodes through engine.New instead",
				})
			}
			return true
		})
	}
	return diags
}

// isNewNode reports whether call invokes internal/core's NewNode.
func (u *Unit) isNewNode(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewNode" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := u.Info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == u.Module+"/internal/core"
}

// inAnyDir reports whether rel is one of the directories or nested
// under one of them.
func inAnyDir(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
