package lint

// lockdiscipline: a Lock() with no matching Unlock anywhere in the same
// function is either a leak or a cross-function lock handoff, which must
// be declared with a suppression so reviewers see it. Copying a value
// that contains a sync lock is go vet's copylocks check, which CI runs.

import (
	"go/ast"
	"go/types"
)

// LockDisciplineAnalyzer enforces lock pairing.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "flag Lock() without Unlock in the same function (lock copies are go vet's copylocks)",
	Run:  runLockDiscipline,
}

func runLockDiscipline(p *Pass) {
	for _, file := range p.Files() {
		for _, fu := range funcUnits(file) {
			checkLockPairing(p, fu)
		}
	}
}

// syncCall returns the sync method n calls (Lock, Unlock, ...) and its
// rendered receiver ("s.mu"), or "" if n is no such call.
func syncCall(p *Pass, n ast.Node) (verb, recv string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return fn.Name(), types.ExprString(sel.X)
}

// checkLockPairing flags Lock/RLock calls whose receiver is never
// released anywhere in the same function — directly, deferred, or
// inside a closure the function defines (deferred cleanup closures are
// a release site, though a Lock inside a nested function literal is
// that literal's to pair).
func checkLockPairing(p *Pass, fu funcUnit) {
	releases := make(map[string]bool) // verb + "\x00" + recv, closures included
	ast.Inspect(fu.body, func(n ast.Node) bool {
		if verb, recv := syncCall(p, n); verb == "Unlock" || verb == "RUnlock" {
			releases[verb+"\x00"+recv] = true
		}
		return true
	})
	ast.Inspect(fu.body, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			return false
		}
		verb, recv := syncCall(p, n)
		if verb != "Lock" && verb != "RLock" {
			return true
		}
		want := "Unlock"
		if verb == "RLock" {
			want = "RUnlock"
		}
		if !releases[want+"\x00"+recv] {
			p.Reportf(n.Pos(), "%s.%s() has no %s on any path in %s; add `defer %s.%s()` or declare the handoff with a suppression",
				recv, verb, want, fu.name, recv, want)
		}
		return true
	})
}
