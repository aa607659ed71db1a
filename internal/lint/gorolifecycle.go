package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLifecycle reports `go` statements in non-test code that have no
// provable shutdown path. A goroutine that nothing can stop leaks
// across engine Stop — it keeps mutating nodes, counters and trace
// sinks after the run settled its conservation books. The rule accepts
// a goroutine as lifecycle-tied when any of the following holds:
//
//   - its body calls Done() on a sync.WaitGroup (conventionally
//     deferred) — someone Waits for it;
//   - its body receives from a context's Done() channel or from a
//     `chan struct{}` done/quit channel (directly, in a select, or by
//     ranging over it);
//   - an earlier statement in the same block calls Add on a
//     sync.WaitGroup — the `wg.Add(1); go ...` idiom where the body
//     delegates to a helper the analyzer cannot see into.
//
// A `go` call to a named function declared in the same package is
// checked against that function's body. Fire-and-forget goroutines
// that are genuinely bounded by construction (an Accept loop ended by
// closing the listener, a server ended by Close) carry an explicit
// //lint:allow with the shutdown argument spelled out.
type GoroLifecycle struct{}

// Name implements Analyzer.
func (GoroLifecycle) Name() string { return "gorolifecycle" }

// Doc implements Analyzer.
func (GoroLifecycle) Doc() string {
	return "every goroutine needs a provable shutdown path: WaitGroup, done/quit channel, or context"
}

// Check implements Analyzer.
func (GoroLifecycle) Check(u *Unit) []Diagnostic {
	funcs := u.packageFuncs()
	var diags []Diagnostic
	for _, f := range u.Files {
		if u.IsTestFile(f.Pos()) {
			continue
		}
		// Visit every statement list so the preceding-sibling context of
		// each go statement is available.
		inspectStmtLists(f, func(list []ast.Stmt) {
			for i, stmt := range list {
				gs, ok := stmt.(*ast.GoStmt)
				if !ok {
					continue
				}
				if u.waitGroupAddBefore(list[:i]) {
					continue
				}
				if body := u.goroutineBody(gs, funcs); body != nil && u.lifecycleTied(body) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     u.Fset.Position(gs.Pos()),
					Rule:    "gorolifecycle",
					Message: "goroutine has no provable shutdown path (WaitGroup Done, done/quit channel, or context); it would leak across Stop",
				})
			}
		})
	}
	return diags
}

// packageFuncs indexes the unit's function declarations by their
// types object, so `go pkgFunc()` and `go recv.method()` can be
// checked against the callee's body.
func (u *Unit) packageFuncs() map[types.Object]*ast.FuncDecl {
	out := make(map[types.Object]*ast.FuncDecl)
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := u.Info.Defs[fd.Name]; obj != nil {
				out[obj] = fd
			}
		}
	}
	return out
}

// goroutineBody resolves the block the goroutine will execute: the
// literal's body, or the body of a same-package named function or
// method. nil when the callee is opaque (external or dynamic).
func (u *Unit) goroutineBody(gs *ast.GoStmt, funcs map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := funcs[u.Info.Uses[fun]]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := funcs[u.Info.Uses[fun.Sel]]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// waitGroupAddBefore reports whether an earlier statement in the same
// block calls Add on a sync.WaitGroup.
func (u *Unit) waitGroupAddBefore(before []ast.Stmt) bool {
	for _, stmt := range before {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if ok && u.isSyncCall(call, "WaitGroup", "Add") {
			return true
		}
	}
	return false
}

// lifecycleTied reports whether the goroutine body contains shutdown
// evidence. Nested function literals and nested go statements are not
// descended into: their lifecycle is their own.
func (u *Unit) lifecycleTied(body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A deferred literal still runs on this goroutine; inspect
			// it (defer func() { wg.Done() }() is common).
			return true
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if u.isSyncCall(n, "WaitGroup", "Done") {
				tied = true
				return false
			}
		case *ast.UnaryExpr:
			// <-ctx.Done(), <-done
			if n.Op == token.ARROW && u.isShutdownChan(n.X) {
				tied = true
				return false
			}
		case *ast.RangeStmt:
			if u.isShutdownChan(n.X) {
				tied = true
				return false
			}
		}
		return true
	})
	return tied
}

// isSyncCall reports whether the call is method `name` on a sync.`recv`
// value (directly or through an embedded/promoted field).
func (u *Unit) isSyncCall(call *ast.CallExpr, recv, name string) bool {
	return u.methodRecv(call, name) == "sync."+recv
}

// methodRecv returns "<package path>.<type name>" of the named type
// that declares the method `name` call invokes, however the receiver
// reaches it, or "" when call is no such method call.
func (u *Unit) methodRecv(call *ast.CallExpr, name string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return ""
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name()
}

// isShutdownChan reports whether expr is a shutdown signal source: a
// context Done() channel or any channel of struct{} (the done/quit
// channel convention).
func (u *Unit) isShutdownChan(expr ast.Expr) bool {
	if call, ok := expr.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if fn, ok := u.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
				return true
			}
		}
	}
	tv, ok := u.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
