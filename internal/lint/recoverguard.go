package lint

import (
	"go/ast"
	"go/types"
)

// RecoverGuard checks the panic-isolation discipline in every package it
// analyzes (test files excepted, like every analyzer in the suite): every
// `go` statement must install a recover handler, or the goroutine turns
// any panic into a process crash that no server-side isolation can catch.
//
// A goroutine counts as guarded when its body — the launched func
// literal, or the same-package function/method it calls — contains a
// defer that calls recover() directly:
//
//	go func() {
//	    defer func() { handle(recover()) }()
//	    ...
//	}()
//
//	go s.loop()        // func (s *S) loop() { defer func() { ... recover() ... }(); ... }
//
// The deferred handler may also be a same-package named function, as
// long as that function calls recover() in its own body (recover only
// works in the frame of the deferred call). recover() inside a nested
// func literal does not count — it would run in the wrong frame.
// Goroutines launching functions from other packages are flagged too:
// the analyzer cannot see their bodies, so wrap them in a guarded
// literal or suppress with a reason:
//
//	//lint:ignore recoverguard <why a panic here is acceptable>
var RecoverGuard = &Analyzer{
	Name: "recoverguard",
	Doc: "every goroutine must install a recover handler (a defer calling recover() directly), " +
		"or carry a //lint:ignore recoverguard suppression with a reason",
	Run: runRecoverGuard,
}

func runRecoverGuard(pass *Pass) error {
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineGuarded(pass, g.Call, decls) {
				pass.Reportf(g.Pos(), "goroutine without a recover handler: a panic here crashes the process; defer a recover() in the goroutine body (or suppress with a reason)")
			}
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes the package's function and method
// declarations by their defining object, so `go f()` and `go s.m()`
// resolve to inspectable bodies.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

// goroutineGuarded reports whether the goroutine body installs a recover
// handler. Unresolvable targets (other packages' functions, function
// values) report false: the analyzer cannot prove isolation it cannot
// see.
func goroutineGuarded(pass *Pass, call *ast.CallExpr, decls map[types.Object]*ast.FuncDecl) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyInstallsRecover(pass, lit.Body, decls)
	}
	if fd := resolveFuncDecl(pass, call.Fun, decls); fd != nil {
		return bodyInstallsRecover(pass, fd.Body, decls)
	}
	return false
}

// resolveFuncDecl maps a call target expression to its same-package
// declaration; nil for anything it cannot resolve statically.
func resolveFuncDecl(pass *Pass, fun ast.Expr, decls map[types.Object]*ast.FuncDecl) *ast.FuncDecl {
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	if obj := pass.Info.Uses[id]; obj != nil {
		return decls[obj]
	}
	return nil
}

// bodyInstallsRecover reports whether body has a defer statement that
// installs a recover handler. Defers inside nested func literals do not
// count — they only guard the nested function's own frame, and only if
// it is itself launched or deferred.
func bodyInstallsRecover(pass *Pass, body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if d, isDefer := n.(*ast.DeferStmt); isDefer && deferInstallsRecover(pass, d, decls) {
			guarded = true
			return false
		}
		return true
	})
	return guarded
}

// deferInstallsRecover reports whether the deferred call's frame calls
// recover() directly: a deferred func literal containing recover(), or a
// deferred same-package function whose body does.
func deferInstallsRecover(pass *Pass, d *ast.DeferStmt, decls map[types.Object]*ast.FuncDecl) bool {
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		return containsDirectRecover(pass, lit.Body)
	}
	if fd := resolveFuncDecl(pass, d.Call.Fun, decls); fd != nil {
		return containsDirectRecover(pass, fd.Body)
	}
	return false
}

// containsDirectRecover reports whether body calls the recover builtin
// outside any nested func literal (recover in a nested literal runs in
// the wrong frame and returns nil).
func containsDirectRecover(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "recover" {
			return true
		}
		// The builtin, not a shadowing declaration.
		if obj := pass.Info.Uses[id]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return true
			}
		}
		found = true
		return false
	})
	return found
}
