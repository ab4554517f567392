// Command dlaas-vet runs the platform's domain-specific static
// analyzers (internal/lint) over module packages: virtual-clock
// purity, seeded randomness, order-stable map iteration, lock
// discipline, goroutine lifecycle ownership, where unsafe may be
// imported, and internal surfaces no non-test file uses.
//
// Usage:
//
//	dlaas-vet [flags] [packages]
//
//	dlaas-vet ./...                 # whole module, human output
//	dlaas-vet -json ./... > vet.json
//	dlaas-vet -rules wallclock,maporder ./internal/store
//
// Exit status is 1 when any active (unsuppressed) finding exists, 2 on
// operational errors. Suppressions are `//lint:allow <rule> <reason>`
// comments on the flagged line or the line above; the reason is
// mandatory. Policy (per-path rule scoping, lock order) loads from
// dlaas-vet.json at the module root unless -config overrides it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// report is the machine-readable output of one run — the artifact CI
// uploads so the suppression inventory stays visible.
type report struct {
	Packages int            `json:"packages"`
	Findings []lint.Finding `json:"findings"`
	// Counts is findings per "rule" and per "rule suppressed" key,
	// the per-rule inventory.
	Counts map[string]int `json:"counts"`
	// PerPackage counts active findings per package per rule.
	PerPackage map[string]map[string]int `json:"perPackage,omitempty"`
	Active     int                       `json:"active"`
	Suppressed int                       `json:"suppressed"`
	Pass       bool                      `json:"pass"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("dlaas-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the JSON finding report instead of human output")
	config := fs.String("config", "", "policy file (default: dlaas-vet.json at the module root)")
	rules := fs.String("rules", "", "comma-separated rule subset (default: all)")
	listRules := fs.Bool("list", false, "list rules and exit")
	showSuppressed := fs.Bool("suppressed", false, "also print suppressed findings in human output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlaas-vet:", err)
		return 2
	}
	cfgPath := *config
	if cfgPath == "" {
		cfgPath = filepath.Join(ld.ModuleRoot, "dlaas-vet.json")
	}
	policy, err := lint.LoadPolicy(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlaas-vet:", err)
		return 2
	}
	var selected []string
	if *rules != "" {
		known := make(map[string]bool)
		for _, n := range lint.AnalyzerNames() {
			known[n] = true
		}
		for _, r := range strings.Split(*rules, ",") {
			r = strings.TrimSpace(r)
			if !known[r] {
				fmt.Fprintf(os.Stderr, "dlaas-vet: unknown rule %q (known: %s)\n", r, strings.Join(lint.AnalyzerNames(), ", "))
				return 2
			}
			selected = append(selected, r)
		}
	}

	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlaas-vet:", err)
		return 2
	}

	rep := report{
		Counts:     make(map[string]int),
		PerPackage: make(map[string]map[string]int),
		Pass:       true,
	}
	findings, err := lint.Run(ld, pkgs, policy, selected...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlaas-vet:", err)
		return 2
	}
	rep.Packages = len(pkgs)
	for _, f := range findings {
		// Positions relative to the module root keep reports
		// machine-comparable across checkouts.
		if rel, rerr := filepath.Rel(ld.ModuleRoot, f.File); rerr == nil && !strings.HasPrefix(rel, "..") {
			f.File = filepath.ToSlash(rel)
		}
		rep.Findings = append(rep.Findings, f)
		if f.Suppressed {
			rep.Suppressed++
			rep.Counts[f.Rule+" suppressed"]++
			continue
		}
		rep.Active++
		rep.Counts[f.Rule]++
		pp := rep.PerPackage[f.Package]
		if pp == nil {
			pp = make(map[string]int)
			rep.PerPackage[f.Package] = pp
		}
		pp[f.Rule]++
	}
	rep.Pass = rep.Active == 0

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dlaas-vet:", err)
			return 2
		}
	} else {
		printHuman(rep, *showSuppressed)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

func printHuman(rep report, showSuppressed bool) {
	for _, f := range rep.Findings {
		if f.Suppressed {
			if showSuppressed {
				fmt.Printf("%s:%d: [%s] suppressed (%s): %s\n", f.File, f.Line, f.Rule, f.Reason, f.Message)
			}
			continue
		}
		fmt.Printf("%s:%d: [%s] %s\n", f.File, f.Line, f.Rule, f.Message)
	}
	keys := make([]string, 0, len(rep.Counts))
	for k := range rep.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	summary := make([]string, 0, len(keys))
	for _, k := range keys {
		summary = append(summary, fmt.Sprintf("%s=%d", k, rep.Counts[k]))
	}
	status := "ok"
	if rep.Active > 0 {
		status = "FAIL"
	}
	fmt.Printf("dlaas-vet: %s — %d packages, %d active, %d suppressed", status, rep.Packages, rep.Active, rep.Suppressed)
	if len(summary) > 0 {
		fmt.Printf(" (%s)", strings.Join(summary, ", "))
	}
	fmt.Println()
}
