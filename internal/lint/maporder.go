package lint

// maporder: Go map iteration order is deliberately randomized. On a
// replicated state machine's apply/export path, in watch-event
// fan-out, or in a fingerprint/serialization path, iterating a map
// while producing ordered output (appending to a slice, feeding a
// hash or writer, concatenating a string, sending on a channel) makes
// two replicas — or two runs of one seed — diverge. The rule flags
// map ranges whose body has an order-sensitive effect, and recognizes
// the canonical safe idiom (collect keys, sort, then iterate the
// sorted slice): an append whose slice is sorted after the loop in the
// same function is not a finding.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// maporderBuiltinSinks matches callee names that serialize, hash, or
// apply in order. Policy sinkPatterns extend this set.
var maporderBuiltinSinks = regexp.MustCompile(`(?i)^(apply|applyat|export|import|serialize|marshal|encode|emit|broadcast|publish|propose|install|fingerprint)$`)

// orderedWriters are method names that emit bytes in call order
// (io.Writer, strings.Builder, hash.Hash).
var orderedWriters = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// MapOrderAnalyzer flags order-sensitive effects inside map ranges.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-sensitive effects (slice append, hashing, serialization, channel send) on replicated or fingerprint paths; iterate sorted keys instead",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Files() {
		for _, fu := range funcUnits(file) {
			runMapOrderFunc(p, fu)
		}
	}
}

func runMapOrderFunc(p *Pass, fu funcUnit) {
	// Only statements directly in this function body — nested literals
	// get their own funcUnit.
	ast.Inspect(fu.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != fu.node {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapType(p, rng.X) {
			return true
		}
		for _, sink := range mapOrderSinks(p, rng) {
			if sink.appendTo != nil && sortedAfter(p, fu.body, rng, sink.appendTo) {
				continue
			}
			p.Reportf(sink.pos, "map iteration %s: %s; iterate sorted keys (collect, sort, then range the slice) or make the effect order-insensitive",
				types.ExprString(rng.X), sink.what)
		}
		return true
	})
}

type mapSink struct {
	pos  token.Pos
	what string
	// appendTo is the object appended to, for the sorted-after escape.
	appendTo types.Object
}

// mapOrderSinks scans the range body for order-sensitive effects.
func mapOrderSinks(p *Pass, rng *ast.RangeStmt) []mapSink {
	var sinks []mapSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			sinks = append(sinks, mapSink{pos: st.Pos(), what: "sends on a channel in map order"})
		case *ast.AssignStmt:
			if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 {
				if t := p.Pkg.Info.TypeOf(st.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						sinks = append(sinks, mapSink{pos: st.Pos(), what: "concatenates a string in map order"})
					}
				}
			}
			for i, rhs := range st.Rhs {
				if i < len(st.Lhs) {
					if s, ok := appendSink(p, rng, st.Lhs[i], rhs); ok {
						sinks = append(sinks, s)
					}
				}
			}
		case *ast.CallExpr:
			sinks = append(sinks, callSinks(p, st)...)
		}
		return true
	})
	return sinks
}

// appendSink reports `lhs = append(...)` as a sink when lhs is a slice
// that outlives the loop. Appends into per-iteration values (a fresh
// slice, a field of the loop variable, a map entry keyed by the
// iteration key) accumulate independently per key and are order-free.
func appendSink(p *Pass, rng *ast.RangeStmt, lhs ast.Expr, rhs ast.Expr) (mapSink, bool) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return mapSink{}, false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return mapSink{}, false
	}
	if obj, resolved := p.Pkg.Info.Uses[fun]; resolved {
		if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return mapSink{}, false
		}
	}
	root := rootIdent(lhs)
	if root == nil {
		return mapSink{}, false // map-index or other per-key target
	}
	obj := p.Pkg.Info.Uses[root]
	if obj == nil {
		obj = p.Pkg.Info.Defs[root]
	}
	if obj == nil || declaredWithin(obj, rng) {
		return mapSink{}, false
	}
	if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
		return mapSink{}, false // out[k] = append(...): keyed, order-free
	}
	return mapSink{pos: call.Pos(), what: "appends to " + types.ExprString(lhs) + " in map order", appendTo: obj}, true
}

// rootIdent peels selectors/indexes/derefs down to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration sits inside the
// range statement (loop key/value vars and body-local variables).
func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

func callSinks(p *Pass, call *ast.CallExpr) []mapSink {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "append" {
			return nil // handled as an assignment sink
		}
		if matchSink(p, fun.Name) {
			return []mapSink{{pos: call.Pos(), what: "calls order-sensitive function " + fun.Name + " per key"}}
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if orderedWriters[name] {
			return []mapSink{{pos: call.Pos(), what: "writes to " + types.ExprString(fun.X) + " in map order"}}
		}
		if pkg := pkgPathOf(p, nil, fun.X); pkg == "fmt" {
			switch name {
			case "Fprint", "Fprintf", "Fprintln":
				return []mapSink{{pos: call.Pos(), what: "fmt." + name + " emits in map order"}}
			}
		}
		if matchSink(p, name) {
			return []mapSink{{pos: call.Pos(), what: "calls order-sensitive method " + name + " per key"}}
		}
	}
	return nil
}

func matchSink(p *Pass, name string) bool {
	if maporderBuiltinSinks.MatchString(name) {
		return true
	}
	for _, re := range p.Rule.sinkRe {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// sortedAfter reports whether obj (a slice collected inside the map
// range) is passed to a sorting call after the range ends but within
// the same function body — the collect-then-sort idiom, whole or as a
// slice of it (out[len(dst):] when appending to a buffer). Sorting calls
// are the sort and slices packages plus any local helper whose name
// mentions "sort".
func sortedAfter(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted || n == nil {
			return !sorted
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		isSortCall := false
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			pkg := pkgPathOf(p, nil, fun.X)
			isSortCall = pkg == "sort" || pkg == "slices" || sortName.MatchString(fun.Sel.Name)
		case *ast.Ident:
			isSortCall = sortName.MatchString(fun.Name)
		}
		if !isSortCall {
			return true
		}
		for _, arg := range call.Args {
			if s, ok := arg.(*ast.SliceExpr); ok {
				arg = s.X
			}
			if id, ok := arg.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

var sortName = regexp.MustCompile(`(?i)sort`)
