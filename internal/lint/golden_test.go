package lint

// Golden-file tests: every fixture package under testdata/src carries
// `// want "regex"` comments on the lines the analyzers must flag, and
// nothing else may fire. The allow fixture pins the suppression
// contract: //lint:allow covers exactly its named rule, and malformed
// directives are findings themselves.

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile(`//\s*want\s+"(.*)"\s*$`)

// wants maps basename:line to the expected-message regex parsed from
// the fixture's want comments.
func wants(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	out := make(map[string]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), line, m[1], err)
			}
			out[key(e.Name(), line)] = re
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

func key(file string, line int) string {
	return filepath.Base(file) + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// loadFixtures type-checks testdata packages with one loader, so a
// fixture may import another; fixtures must compile cleanly or the
// analysis under test is meaningless.
func loadFixtures(t *testing.T, names ...string) (*Loader, []*Package) {
	t.Helper()
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, name := range names {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ld.Load(dir)
		if err != nil || len(got) != 1 {
			t.Fatalf("fixture %s: %d packages, %v", name, len(got), err)
		}
		for _, terr := range got[0].TypeErrors {
			t.Errorf("fixture %s type error: %v", name, terr)
		}
		pkgs = append(pkgs, got[0])
	}
	if t.Failed() {
		t.FailNow()
	}
	return ld, pkgs
}

// checkGolden runs one rule over the fixtures and diffs its active
// findings against the want comments: every finding must be wanted,
// every want must fire. It returns every finding, suppressed ones too.
func checkGolden(t *testing.T, policy *Policy, rule string, fixtures ...string) []Finding {
	t.Helper()
	ld, pkgs := loadFixtures(t, fixtures...)
	findings, err := Run(ld, pkgs, policy, rule)
	if err != nil {
		t.Fatal(err)
	}
	expected := make(map[string]*regexp.Regexp)
	for _, pkg := range pkgs {
		for k, re := range wants(t, pkg.Dir) {
			expected[k] = re
		}
	}
	matched := make(map[string]bool)
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		k := key(f.File, f.Line)
		re, ok := expected[k]
		if !ok {
			t.Errorf("unexpected finding %s:%d: [%s] %s", filepath.Base(f.File), f.Line, f.Rule, f.Message)
			continue
		}
		if !re.MatchString(f.Message) {
			t.Errorf("%s: finding %q does not match want %q", k, f.Message, re)
		}
		matched[k] = true
	}
	for k, re := range expected {
		if !matched[k] {
			t.Errorf("%s: wanted finding %q never fired", k, re)
		}
	}
	return findings
}

func TestWallclockGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "wallclock", "wallclock")
}

func TestSeededRandGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "seededrand", "seededrand")
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "maporder", "maporder")
}

func TestLockDisciplineGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "lockdiscipline", "lockdiscipline")
}

func TestGoLoopGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "goloop", "goloop")
}

func TestUnsafeGolden(t *testing.T) {
	checkGolden(t, DefaultPolicy(), "unsafe", "unsafeimport")
}

// TestDeadExportGolden loads a library, its test file and a consumer
// package together. The one suppressed finding is the module rule going
// through the same //lint:allow path as the package rules.
func TestDeadExportGolden(t *testing.T) {
	var suppressed []Finding
	for _, f := range checkGolden(t, DefaultPolicy(), "deadexport", "deadexport/lib", "deadexport/use") {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) != 1 || !strings.Contains(suppressed[0].Message, "func Allowed") {
		t.Errorf("suppressed findings = %v, want func Allowed's alone", suppressed)
	}
}

// TestDeadExportSubsetAgrees: the rule reads the whole module's uses
// whatever subset it is asked to report on, so a subset run reports
// nothing a whole-module run does not. Suppressed findings count, so the
// comparison is not vacuous on a clean tree. The subset runs first, on a
// fresh loader as the command's would be; the whole-module run then reuses
// the units it loaded.
func TestDeadExportSubsetAgrees(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := LoadPolicy(filepath.Join(ld.ModuleRoot, "dlaas-vet.json"))
	if err != nil {
		t.Fatal(err)
	}
	report := func(patterns ...string) map[string]bool {
		pkgs, err := ld.Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		findings, err := Run(ld, pkgs, policy, "deadexport")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, f := range findings {
			out[f.String()] = true
		}
		return out
	}
	part := report("./internal/store", "./internal/kube")
	whole := report("./...")
	for f := range part {
		if !whole[f] {
			t.Errorf("dlaas-vet ./internal/store ./internal/kube reports %s, which dlaas-vet ./... does not", f)
		}
	}
	if len(part) == 0 {
		t.Error("the subset run reports no deadexport finding, suppressed or not; the comparison checks nothing")
	}
}

// TestAllowPrecision pins the suppression contract on the allow
// fixture: a //lint:allow covers exactly its named rule on its line
// and the line below; wrong-rule, reasonless, and unknown-rule
// directives leave the finding active (and the malformed ones are
// "lint" findings themselves).
func TestAllowPrecision(t *testing.T) {
	ld, pkgs := loadFixtures(t, "allow")
	findings, err := Run(ld, pkgs, DefaultPolicy(), "wallclock")
	if err != nil {
		t.Fatal(err)
	}

	byRule := make(map[string][]Finding)
	for _, f := range findings {
		byRule[f.Rule] = append(byRule[f.Rule], f)
	}

	wall := byRule["wallclock"]
	if len(wall) != 5 {
		t.Fatalf("wallclock findings = %d, want 5: %v", len(wall), wall)
	}
	var suppressed, active int
	for _, f := range wall {
		if f.Suppressed {
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding at line %d has empty reason", f.Line)
			}
		} else {
			active++
		}
	}
	if suppressed != 2 || active != 3 {
		t.Errorf("wallclock suppressed/active = %d/%d, want 2/3: %v", suppressed, active, wall)
	}

	// The wrong-rule directive must not have suppressed the wallclock
	// finding it sits above.
	for _, f := range wall {
		if f.Suppressed && !strings.Contains(f.Reason, "documented real-time") {
			t.Errorf("finding at line %d suppressed by the wrong directive (reason %q)", f.Line, f.Reason)
		}
	}

	lintF := byRule["lint"]
	if len(lintF) != 2 {
		t.Fatalf("lint hygiene findings = %d, want 2 (no-reason + unknown-rule): %v", len(lintF), lintF)
	}
	var sawNoReason, sawUnknown bool
	for _, f := range lintF {
		if f.Suppressed {
			t.Errorf("lint hygiene finding at line %d is suppressed; hygiene findings must not be suppressible", f.Line)
		}
		if strings.Contains(f.Message, "has no reason") {
			sawNoReason = true
		}
		if strings.Contains(f.Message, "unknown rule") {
			sawUnknown = true
		}
	}
	if !sawNoReason || !sawUnknown {
		t.Errorf("lint findings missing a case: noReason=%v unknown=%v: %v", sawNoReason, sawUnknown, lintF)
	}
}

// TestPolicyScoping pins the path and test-file scoping knobs.
func TestPolicyScoping(t *testing.T) {
	rc := RuleConfig{Include: []string{"internal/store"}, Exclude: []string{"internal/store/testutil"}}
	cases := []struct {
		rel  string
		want bool
	}{
		{"internal/store", true},
		{"internal/store/sub", true},
		{"internal/store/testutil", false},
		{"internal/storeother", false},
		{"internal/etcd", false},
	}
	for _, c := range cases {
		if got := rc.appliesTo(c.rel); got != c.want {
			t.Errorf("appliesTo(%q) = %v, want %v", c.rel, got, c.want)
		}
	}
	if !(RuleConfig{TestAllow: []string{"After"}}).testAllows("After") {
		t.Error("testAllows(After) = false, want true")
	}
	if (RuleConfig{TestAllow: []string{"After"}}).testAllows("Sleep") {
		t.Error("testAllows(Sleep) = true, want false")
	}
}

// TestRepoPolicyLoads guards the checked-in policy file: it must parse,
// reference only known rules, and scope them by prefixes that name
// directories of the module. A stale prefix silently widens or narrows a
// rule.
func TestRepoPolicyLoads(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := LoadPolicy(filepath.Join(ld.ModuleRoot, "dlaas-vet.json"))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, n := range AnalyzerNames() {
		known[n] = true
	}
	for name, rc := range policy.Rules {
		if !known[name] {
			t.Errorf("dlaas-vet.json configures unknown rule %q", name)
		}
		for _, prefix := range append(rc.Include, rc.Exclude...) {
			if fi, err := os.Stat(filepath.Join(ld.ModuleRoot, prefix)); err != nil || !fi.IsDir() {
				t.Errorf("dlaas-vet.json rule %s scopes by %q, which names no directory of the module", name, prefix)
			}
		}
	}
}
