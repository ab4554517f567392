package lint

// unsafe: the platform's values are shared across goroutines and replicas
// on the promise that nobody writes bytes another party still reads. The
// unsafe package is how code steps outside that promise without a copy
// (etcd's replicas view a raft payload as a string in place), so each
// package that imports it is a policy decision: dlaas-vet.json scopes the
// rule out of exactly those packages, and any other import is a finding.

// UnsafeAnalyzer forbids importing unsafe outside the packages the policy
// scopes the rule out of.
var UnsafeAnalyzer = &Analyzer{
	Name: "unsafe",
	Doc:  "forbid importing unsafe outside the packages dlaas-vet.json scopes out; aliasing shared bytes is a reviewed policy edit",
	Run:  runUnsafe,
}

func runUnsafe(p *Pass) {
	for _, file := range p.Files() {
		for _, spec := range file.Imports {
			if importPath(spec) == "unsafe" {
				p.Reportf(spec.Pos(), "import of unsafe outside the packages dlaas-vet.json scopes out of this rule; add the package there, with the invariant that makes it sound, or copy instead")
			}
		}
	}
}
