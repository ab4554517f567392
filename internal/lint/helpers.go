package lint

import (
	"go/ast"
	"go/types"
)

// pkgPathOf resolves expr to the import path of the package it names,
// or "" when expr is not a package qualifier. Falls back to the file's
// import table when type information is incomplete, so purely
// syntactic matching still works on packages that fail to check.
func pkgPathOf(p *Pass, file *ast.File, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := p.Pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a real value shadows any import of the same name
	}
	if file == nil {
		return ""
	}
	for _, spec := range file.Imports {
		path := importPath(spec)
		name := path
		if i := lastSlash(path); i >= 0 {
			name = path[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	return s
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// deref unwraps pointers.
func deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// isMapType reports whether the expression's type is a map.
func isMapType(p *Pass, expr ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingFuncs returns every function body (decl or literal) in the
// file, in source order, paired with its display name.
type funcUnit struct {
	name string
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
	decl *ast.FuncDecl // nil for literals
}

func funcUnits(file *ast.File) []funcUnit {
	var out []funcUnit
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcUnit{name: fn.Name.Name, node: fn, body: fn.Body, decl: fn})
			}
		case *ast.FuncLit:
			out = append(out, funcUnit{name: "func literal", node: fn, body: fn.Body})
		}
		return true
	})
	return out
}
