package lint

// deadexport: nothing outside the module may import an internal package,
// so the module is the whole audience of its exports. An exported func,
// method, type, field, const or var that no non-test file uses, or an
// unexported func or method only tests reach, is a surface kept alive by
// its own tests: it costs review and test time and answers to no caller.
// Seeing that takes every package's types.Info.Uses at once, so this is a
// module rule.
//
// Declarations and uses meet by source position, not types.Object: the
// loader checks a unit apart from the clean package its importers see, so
// one declaration has two objects (an instantiated generic's methods and
// fields keep their origin's position too). A use inside the declaration
// itself, or for a type inside its methods, does not count; nor does one
// in a _test.go file. Exempt are methods through which their type
// satisfies an interface the module names or stdInterfaces, embedded
// fields, and json-tagged fields, which encoding/json reaches by
// reflection.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// DeadExportAnalyzer reports internal surfaces no non-test file uses.
var DeadExportAnalyzer = &Analyzer{
	Name:      "deadexport",
	Doc:       "report internal/ exports and unexported funcs that no non-test file of the module uses; a surface only its tests keep alive costs review and test time",
	RunModule: runDeadExport,
}

// stdInterfaces are the interfaces the standard library calls through
// whether or not the module names them.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"encoding/json", "Marshaler"},
	{"net/http", "Handler"},
}

// srcPos is a position that is the same in every check of a file.
type srcPos struct {
	file string
	off  int
}

type surface struct {
	pkg            *Package
	id             *ast.Ident
	kind, name     string
	own            []ast.Node // the declaration, and a type's methods
	used, testUsed bool
}

func runDeadExport(p *ModulePass) error {
	ifaces, err := namedInterfaces(p)
	if err != nil {
		return err
	}
	var surfaces []*surface
	at := make(map[srcPos]*surface)
	for _, pkg := range p.Pkgs {
		if strings.HasPrefix(pkg.ImportPath, "internal/") || strings.Contains(pkg.ImportPath, "/internal/") {
			for _, s := range declaredSurfaces(pkg, ifaces) {
				surfaces = append(surfaces, s)
				at[posKey(pkg.Fset, s.id.Pos())] = s
			}
		}
	}
	for _, pkg := range p.Module {
		for id, obj := range pkg.Info.Uses {
			s := at[posKey(pkg.Fset, obj.Pos())]
			if s == nil || s.owns(posKey(pkg.Fset, id.Pos())) {
				continue
			}
			if strings.HasSuffix(pkg.Fset.File(id.Pos()).Name(), "_test.go") {
				s.testUsed = true
			} else {
				s.used = true
			}
		}
	}
	for _, s := range surfaces {
		if !s.used {
			why := "nothing uses it"
			if s.testUsed {
				why = "only tests use it"
			}
			p.Reportf(s.pkg, s.id.Pos(), "%s %s has no consumer outside tests (%s); delete it with its tests, or give it a consumer", s.kind, s.name, why)
		}
	}
	return nil
}

func (s *surface) owns(use srcPos) bool {
	for _, n := range s.own {
		lo, hi := posKey(s.pkg.Fset, n.Pos()), posKey(s.pkg.Fset, n.End())
		if lo.file == use.file && lo.off <= use.off && use.off < hi.off {
			return true
		}
	}
	return false
}

func posKey(fset *token.FileSet, pos token.Pos) srcPos {
	if f := fset.File(pos); f != nil {
		return srcPos{f.Name(), f.Offset(pos)}
	}
	return srcPos{}
}

// declaredSurfaces lists what the package's non-test files declare that
// the rule covers, less the exempt methods and fields.
func declaredSurfaces(pkg *Package, ifaces map[string][]*types.Interface) []*surface {
	var out []*surface
	typeOf := make(map[string]*surface)
	add := func(id *ast.Ident, kind, name string, decl ast.Node) *surface {
		s := &surface{pkg: pkg, id: id, kind: kind, name: name, own: []ast.Node{decl}}
		out = append(out, s)
		return s
	}
	var methods []*ast.FuncDecl
	for _, file := range pkg.Files {
		if pkg.IsTest[file] {
			continue
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods = append(methods, d)
				} else if n := d.Name.Name; n != "init" && n != "main" && n != "_" {
					add(d.Name, "func", n, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var decl ast.Node = spec
					if len(d.Specs) == 1 {
						decl = d // a lone spec owns its doc comment
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							typeOf[spec.Name.Name] = add(spec.Name, "type", spec.Name.Name, decl)
						}
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, id := range f.Names {
									if id.IsExported() && !jsonTagged(f) {
										add(id, "field", spec.Name.Name+"."+id.Name, f)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								add(id, d.Tok.String(), id.Name, decl)
							}
						}
					}
				}
			}
		}
	}
	for _, d := range methods {
		fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
		if !ok {
			continue
		}
		named, ok := deref(fn.Type().(*types.Signature).Recv().Type()).(*types.Named)
		if !ok {
			continue
		}
		recv := named.Obj().Name()
		if t := typeOf[recv]; t != nil {
			t.own = append(t.own, d)
		}
		if d.Name.Name != "_" && !satisfiesInterface(fn, ifaces) {
			add(d.Name, "method", recv+"."+d.Name.Name, d)
		}
	}
	return out
}

func jsonTagged(f *ast.Field) bool {
	if f.Tag == nil {
		return false
	}
	tag, _ := strconv.Unquote(f.Tag.Value)
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// namedInterfaces indexes by method name error, stdInterfaces and every
// interface the module's non-test files name.
func namedInterfaces(p *ModulePass) (map[string][]*types.Interface, error) {
	seen := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var paths []string
	for _, si := range stdInterfaces {
		paths = append(paths, si[0])
	}
	if err := p.Loader.ensureExports(paths); err != nil {
		return nil, err
	}
	for _, si := range stdInterfaces {
		pkg, err := p.Loader.gcImp.Import(si[0])
		if err != nil {
			return nil, err
		}
		seen[pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)] = true
	}
	for _, pkg := range p.Module {
		for _, m := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for id, obj := range m {
				if tn, ok := obj.(*types.TypeName); ok && !strings.HasSuffix(pkg.Fset.File(id.Pos()).Name(), "_test.go") {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						seen[it] = true
					}
				}
			}
		}
	}
	byName := make(map[string][]*types.Interface)
	for it := range seen {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	return byName, nil
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type satisfies one of ifaces. Parameter and result types are
// compared as strings: the interface and the method may come from
// separate checks of one package, whose types are distinct objects.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(deref(fn.Type().(*types.Signature).Recv().Type())))
	shape := func(sig *types.Signature) string {
		var b strings.Builder
		b.WriteString(strconv.FormatBool(sig.Variadic()))
		for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < t.Len(); i++ {
				b.WriteString(types.TypeString(t.At(i).Type(), nil) + ",")
			}
			b.WriteString(";")
		}
		return b.String()
	}
	for _, it := range ifaces[fn.Name()] {
		all := true
		for i := 0; i < it.NumMethods() && all; i++ {
			want := it.Method(i)
			sel := mset.Lookup(want.Pkg(), want.Name())
			all = sel != nil && shape(sel.Obj().Type().(*types.Signature)) == shape(want.Type().(*types.Signature))
		}
		if all {
			return true
		}
	}
	return false
}
