package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked analysis unit. Test
// files (both in-package and external _test packages) are folded into
// the same unit so analyzers see them with full type information; the
// IsTest map records which files are tests so policies can skip them.
type Package struct {
	// ImportPath is the package's import path ("repro/internal/store").
	ImportPath string
	// RelPath is the module-relative directory ("internal/store", "."
	// for the module root) used for policy matching.
	RelPath string
	Dir     string

	Fset  *token.FileSet
	Files []*ast.File
	// IsTest marks files parsed from *_test.go, keyed by *ast.File.
	IsTest map[*ast.File]bool

	Types *types.Package
	Info  *types.Info

	// TypeErrors collects soft type-check errors. Analysis proceeds on
	// partial information; callers may surface these as diagnostics.
	TypeErrors []error
}

// Loader walks a module tree, parses packages, and type-checks them
// using only the standard library: module-internal imports are checked
// from source recursively, everything else resolves through export
// data obtained from one `go list -export -deps -json` invocation.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet

	// clean caches the type-checked package (non-test files only) per
	// import path, for use by importers of other packages.
	clean map[string]*types.Package
	// cleanErr remembers packages that failed to load so cycles or
	// repeated failures do not recurse forever.
	cleanErr map[string]error
	checking map[string]bool
	// units caches analysis units per directory, so a module rule that
	// reads the whole module re-uses the units already loaded.
	units map[string]*Package

	// exports maps an import path outside the module to its export
	// data file, fed by `go list -export`.
	exports map[string]string
	gcImp   types.ImporterFrom
}

// NewLoader locates the module root at or above dir and reads the
// module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	ld := &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		clean:      make(map[string]*types.Package),
		cleanErr:   make(map[string]error),
		checking:   make(map[string]bool),
		units:      make(map[string]*Package),
		exports:    make(map[string]string),
	}
	ld.gcImp = importer.ForCompiler(ld.fset, "gc", ld.lookupExport).(types.ImporterFrom)
	return ld, nil
}

// Load expands the patterns ("./...", "./internal/store", "internal/...",
// a plain directory) into package directories under the module root and
// returns fully analyzed units in deterministic (path-sorted) order.
func (ld *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := ld.loadUnit(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// moduleWith returns every package of the module's "./..." walk plus
// pkgs (which may lie outside it, as testdata fixtures do).
func (ld *Loader) moduleWith(pkgs []*Package) ([]*Package, error) {
	all, err := ld.Load("./...")
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		if !slices.Contains(all, pkg) {
			all = append(all, pkg)
		}
	}
	return all, nil
}

func (ld *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(ld.ModuleRoot, pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory to its import path within the module.
func (ld *Loader) importPathFor(dir string) (imp, rel string, err error) {
	r, err := filepath.Rel(ld.ModuleRoot, dir)
	if err != nil {
		return "", "", err
	}
	r = filepath.ToSlash(r)
	if r == "." {
		return ld.ModulePath, ".", nil
	}
	if strings.HasPrefix(r, "..") {
		return "", "", fmt.Errorf("directory %s outside module %s", dir, ld.ModuleRoot)
	}
	return ld.ModulePath + "/" + r, r, nil
}

// parseDir parses the directory's Go files the go command would build
// here (build constraints and GOOS/GOARCH file names honored), split into
// package files, in-package test files, and external (_test package) test
// files.
func (ld *Loader) parseDir(dir string) (files, inTest, extTest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, perr := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(n, "_test.go"):
			extTest = append(extTest, f)
		case strings.HasSuffix(n, "_test.go"):
			inTest = append(inTest, f)
		default:
			files = append(files, f)
		}
	}
	return files, inTest, extTest, nil
}

// loadUnit parses and type-checks one directory as an analysis unit:
// package files plus in-package test files checked together, the
// external test package (if any) checked alongside and merged into the
// same unit. Returns nil if the directory has no Go files. Units are
// loaded once per loader.
func (ld *Loader) loadUnit(dir string) (*Package, error) {
	if pkg, ok := ld.units[dir]; ok {
		return pkg, nil
	}
	files, inTest, extTest, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && len(inTest) == 0 && len(extTest) == 0 {
		return nil, nil
	}
	imp, rel, err := ld.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: imp,
		RelPath:    rel,
		Dir:        dir,
		Fset:       ld.fset,
		IsTest:     make(map[*ast.File]bool),
		Info:       newInfo(),
	}

	// Resolve export data for every non-module import up front, one
	// `go list` per unit at most (usually zero after the first).
	var ext []string
	for _, f := range append(append(append([]*ast.File{}, files...), inTest...), extTest...) {
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if !ld.inModule(p) && p != "unsafe" {
				ext = append(ext, p)
			}
		}
	}
	if err := ld.ensureExports(ext); err != nil {
		return nil, err
	}

	checked := append(append([]*ast.File{}, files...), inTest...)
	conf := types.Config{
		Importer: &unitImporter{ld: ld},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(imp, ld.fset, checked, pkg.Info)
	pkg.Types = tpkg
	pkg.Files = checked
	for _, f := range inTest {
		pkg.IsTest[f] = true
	}

	if len(extTest) > 0 {
		// The external test package imports the clean unit; make sure
		// the clean version is cached before checking it.
		if len(files) > 0 {
			if _, err := ld.loadClean(imp, dir); err != nil {
				return nil, err
			}
		}
		xconf := types.Config{
			Importer: &unitImporter{ld: ld},
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		xconf.Check(imp+"_test", ld.fset, extTest, pkg.Info)
		for _, f := range extTest {
			pkg.Files = append(pkg.Files, f)
			pkg.IsTest[f] = true
		}
	}
	ld.units[dir] = pkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func (ld *Loader) inModule(path string) bool {
	return path == ld.ModulePath || strings.HasPrefix(path, ld.ModulePath+"/")
}

// loadClean type-checks the non-test files of the package at dir and
// caches the result for importers. Import cycles through test files
// cannot occur here because test files are excluded.
func (ld *Loader) loadClean(imp, dir string) (*types.Package, error) {
	if p, ok := ld.clean[imp]; ok {
		return p, nil
	}
	if err, ok := ld.cleanErr[imp]; ok {
		return nil, err
	}
	if ld.checking[imp] {
		return nil, fmt.Errorf("import cycle through %s", imp)
	}
	ld.checking[imp] = true
	defer func() { delete(ld.checking, imp) }()

	files, _, _, err := ld.parseDir(dir)
	if err != nil {
		ld.cleanErr[imp] = err
		return nil, err
	}
	if len(files) == 0 {
		err := fmt.Errorf("no non-test Go files in %s", dir)
		ld.cleanErr[imp] = err
		return nil, err
	}
	var ext []string
	for _, f := range files {
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if !ld.inModule(p) && p != "unsafe" {
				ext = append(ext, p)
			}
		}
	}
	if err := ld.ensureExports(ext); err != nil {
		ld.cleanErr[imp] = err
		return nil, err
	}
	conf := types.Config{
		Importer: &unitImporter{ld: ld},
		Error:    func(error) {}, // soft: dependents still get partial info
	}
	tpkg, err := conf.Check(imp, ld.fset, files, nil)
	if tpkg == nil {
		ld.cleanErr[imp] = err
		return nil, err
	}
	ld.clean[imp] = tpkg
	return tpkg, nil
}

// unitImporter resolves imports during a unit check: module-internal
// paths recurse into loadClean, everything else goes through gc export
// data.
type unitImporter struct{ ld *Loader }

func (ui *unitImporter) Import(path string) (*types.Package, error) {
	return ui.ImportFrom(path, "", 0)
}

func (ui *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	ld := ui.ld
	if ld.inModule(path) {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, ld.ModulePath), "/")
		return ld.loadClean(path, filepath.Join(ld.ModuleRoot, filepath.FromSlash(sub)))
	}
	return ld.gcImp.ImportFrom(path, dir, mode)
}

// lookupExport feeds the gc importer from the `go list -export` map.
func (ld *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := ld.exports[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// ensureExports runs `go list -export -deps -json` for any of paths not
// yet resolved and records every package's export file. The go command
// is the only external tool the loader shells out to, keeping the
// analyzer consistent with the module's empty dependency set.
func (ld *Loader) ensureExports(paths []string) error {
	var missing []string
	seen := make(map[string]bool)
	for _, p := range paths {
		if _, ok := ld.exports[p]; !ok && !seen[p] {
			seen[p] = true
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, missing...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.ModuleRoot
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go list -export: %v\n%s", err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for {
		var p struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list -export: decoding output: %v", err)
		}
		if p.ImportPath != "" {
			ld.exports[p.ImportPath] = p.Export
		}
	}
	for _, p := range missing {
		if _, ok := ld.exports[p]; !ok {
			ld.exports[p] = "" // remembered as unresolvable
		}
	}
	return nil
}
