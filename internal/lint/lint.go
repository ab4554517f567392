// Package lint is dlaas-vet's analysis engine: a stdlib-only analyzer
// framework (go/parser + go/ast + go/types; dependency export data via
// `go list -export`) with domain rules that machine-check the
// platform's dependability invariants — virtual-clock purity, seeded
// randomness, order-stable map iteration on replicated and fingerprint
// paths, lock discipline, goroutine lifecycle ownership, where unsafe
// may alias shared bytes, and that every internal surface has a
// consumer.
//
// Everything `go test` can only sample, these analyzers enforce
// exhaustively at compile time: a nondeterministic map iteration in an
// apply path is a replica-divergence bug whether or not a test catches
// it on today's seed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a position.
type Finding struct {
	Rule    string         `json:"rule"`
	Package string         `json:"package"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Message string         `json:"message"`
	// Suppressed is set when a //lint:allow comment covers the finding;
	// suppressed findings are reported in JSON inventories but do not
	// fail the run.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// Pass hands one analysis unit to an analyzer.
type Pass struct {
	Pkg    *Package
	Policy *Policy
	Rule   RuleConfig

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, newFinding(p.Pkg, pos, format, args...))
}

// newFinding builds a finding at pos in pkg; the runner fills in Rule.
func newFinding(pkg *Package, pos token.Pos, format string, args ...any) Finding {
	position := pkg.Fset.Position(pos)
	return Finding{
		Package: pkg.ImportPath,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Message: fmt.Sprintf(format, args...),
	}
}

// Files yields the unit's files the rule applies to, honoring the
// per-rule skipTests policy.
func (p *Pass) Files() []*ast.File {
	if !p.Rule.SkipTests {
		return p.Pkg.Files
	}
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		if !p.Pkg.IsTest[f] {
			out = append(out, f)
		}
	}
	return out
}

// An Analyzer is one named rule. A package rule sets Run and sees one
// unit at a time; a module rule sets RunModule and sees every package of
// the module at once.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass) error
}

// ModulePass hands a module rule the packages it may report in and the
// packages whose uses it may read.
type ModulePass struct {
	// Pkgs are the loaded packages the rule's policy scope covers;
	// findings land only in these.
	Pkgs []*Package
	// Module is every package of the module plus every loaded one: the
	// consumers, whatever subset was asked for.
	Module []*Package
	Loader *Loader

	findings []Finding
}

// Reportf records a finding at pos in pkg.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, newFinding(pkg, pos, format, args...))
}

// Analyzers returns the full rule set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		SeededRandAnalyzer,
		MapOrderAnalyzer,
		LockDisciplineAnalyzer,
		GoLoopAnalyzer,
		UnsafeAnalyzer,
		DeadExportAnalyzer,
	}
}

// AnalyzerNames returns the rule names in stable order.
func AnalyzerNames() []string {
	as := Analyzers()
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_-]+)(?:\s+(.*))?$`)

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	rule   string
	reason string
	line   int
	file   string
	pos    token.Pos
}

// collectAllows parses every //lint:allow directive in the unit. A
// directive suppresses findings of exactly its named rule on its own
// line and on the line directly below it (so it can ride at end of
// line or on a line of its own above the flagged statement).
func collectAllows(pkg *Package) []allowDirective {
	var out []allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, allowDirective{
					rule:   m[1],
					reason: strings.TrimSpace(m[2]),
					line:   pos.Line,
					file:   pos.Filename,
					pos:    c.Pos(),
				})
			}
		}
	}
	return out
}

// Run executes the selected analyzers (all of them if names is empty)
// over pkgs, applies suppressions, and returns findings sorted by
// position. A module rule reads the uses of the whole module, loading
// through ld the packages pkgs does not hold, so a subset run reports
// nothing a whole-module run would not. Malformed directives (missing
// reason, unknown rule name) are themselves findings under the "lint"
// pseudo-rule: a suppression without a reason is review debt the
// inventory must show.
func Run(ld *Loader, pkgs []*Package, policy *Policy, names ...string) ([]Finding, error) {
	selected := Analyzers()
	if len(names) > 0 {
		want := make(map[string]bool, len(names))
		for _, n := range names {
			want[n] = true
		}
		var out []*Analyzer
		for _, a := range selected {
			if want[a.Name] {
				out = append(out, a)
			}
		}
		selected = out
	}

	byPath := make(map[string][]Finding, len(pkgs))
	for _, a := range selected {
		rc := policy.Rule(a.Name)
		var scoped []*Package
		for _, pkg := range pkgs {
			if rc.appliesTo(pkg.RelPath) {
				scoped = append(scoped, pkg)
			}
		}
		if a.RunModule == nil {
			for _, pkg := range scoped {
				pass := &Pass{Pkg: pkg, Policy: policy, Rule: rc}
				a.Run(pass)
				byPath[pkg.ImportPath] = append(byPath[pkg.ImportPath], named(a.Name, pass.findings)...)
			}
			continue
		}
		module, err := ld.moduleWith(pkgs)
		if err != nil {
			return nil, err
		}
		pass := &ModulePass{Pkgs: scoped, Module: module, Loader: ld}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
		for _, f := range named(a.Name, pass.findings) {
			byPath[f.Package] = append(byPath[f.Package], f)
		}
	}

	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, suppress(pkg, byPath[pkg.ImportPath])...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

func named(rule string, findings []Finding) []Finding {
	for i := range findings {
		findings[i].Rule = rule
	}
	return findings
}

// suppress applies the unit's //lint:allow directives to its findings,
// package and module rules alike, and appends a "lint" finding for each
// malformed directive.
func suppress(pkg *Package, findings []Finding) []Finding {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	type key struct {
		file string
		line int
		rule string
	}
	hygiene := func(d *allowDirective, format string, args ...any) {
		f := newFinding(pkg, d.pos, format, args...)
		f.Rule = "lint"
		findings = append(findings, f)
	}
	allowAt := make(map[key]*allowDirective)
	allows := collectAllows(pkg)
	for i := range allows {
		d := &allows[i]
		if d.reason == "" {
			hygiene(d, "lint:allow %s has no reason; every suppression must say why", d.rule)
			continue
		}
		if !known[d.rule] {
			hygiene(d, "lint:allow names unknown rule %q (known: %s)", d.rule, strings.Join(AnalyzerNames(), ", "))
			continue
		}
		allowAt[key{d.file, d.line, d.rule}] = d
		allowAt[key{d.file, d.line + 1, d.rule}] = d
	}
	for i := range findings {
		f := &findings[i]
		if f.Rule == "lint" {
			continue // suppression hygiene findings cannot be suppressed
		}
		if d, ok := allowAt[key{f.File, f.Line, f.Rule}]; ok {
			f.Suppressed = true
			f.Reason = d.reason
		}
	}
	return findings
}
