package lint

// Golden-file tests: every fixture package under testdata/src carries
// `// want "regex"` comments on the lines the analyzers must flag, and
// nothing else may fire. The allow fixture pins the suppression
// contract: //lint:allow covers exactly its named rule, and malformed
// directives are findings themselves.

import (
	"bufio"
	"go/types"
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

// loadFixture type-checks one testdata package; fixtures must compile
// cleanly or the analysis under test is meaningless.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s type error: %v", name, terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// checkGolden runs the analyzers over the fixture and diffs findings
// against the want comments: every finding must be wanted, every want
// must fire.
func checkGolden(t *testing.T, pkg *Package, policy *Policy, rules ...string) {
	t.Helper()
	findings := Run(pkg, policy, rules...)
	expected := wants(t, pkg.Dir)
	matched := make(map[string]bool)
	for _, f := range findings {
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
}

func TestWallclockGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "wallclock"), DefaultPolicy(), "wallclock")
}

func TestSeededRandGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "seededrand"), DefaultPolicy(), "seededrand")
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "maporder"), DefaultPolicy(), "maporder")
}

func TestLockDisciplineGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "lockdiscipline"), DefaultPolicy(), "lockdiscipline")
}

func TestLockOrderGolden(t *testing.T) {
	policy := DefaultPolicy()
	policy.LockOrder = [][2]string{{"lockorder.engine.stateMu", "lockorder.hub.fanMu"}}
	checkGolden(t, loadFixture(t, "lockorder"), policy, "lockdiscipline")
}

func TestGoLoopGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "goloop"), DefaultPolicy(), "goloop")
}

func TestUnsafeGolden(t *testing.T) {
	checkGolden(t, loadFixture(t, "unsafeimport"), DefaultPolicy(), "unsafe")
}

// TestAllowPrecision pins the suppression contract on the allow
// fixture: a //lint:allow covers exactly its named rule on its line
// and the line below; wrong-rule, reasonless, and unknown-rule
// directives leave the finding active (and the malformed ones are
// "lint" findings themselves).
func TestAllowPrecision(t *testing.T) {
	pkg := loadFixture(t, "allow")
	findings := Run(pkg, DefaultPolicy())

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

	// Active() must drop exactly the suppressed pair.
	if got, want := len(Active(findings)), len(findings)-2; got != want {
		t.Errorf("Active() = %d findings, want %d", got, want)
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
// reference only known rules, and order only locks that exist. A lockOrder
// ID that names no lock matches no acquisition, so a stale pair would
// silently check nothing.
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
	for name := range policy.Rules {
		if !known[name] {
			t.Errorf("dlaas-vet.json configures unknown rule %q", name)
		}
	}
	for _, pair := range policy.LockOrder {
		for _, id := range pair {
			if !namesLockField(t, ld, id) {
				t.Errorf("dlaas-vet.json lockOrder: %q names no sync.Mutex or sync.RWMutex field of a type declared in the module", id)
			}
		}
	}
}

// namesLockField reports whether id, in lockdiscipline's "pkg.Type.field"
// form, names a sync.Mutex or sync.RWMutex field of a struct type (not an
// alias: lockdiscipline sees the aliased type's name) declared in a
// package of the module called pkg.
func namesLockField(t *testing.T, ld *Loader, id string) bool {
	t.Helper()
	parts := strings.Split(id, ".")
	if len(parts) != 3 {
		return false
	}
	dirs, err := ld.expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, _, _, err := ld.parseDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 || files[0].Name.Name != parts[0] {
			continue
		}
		imp, _, err := ld.importPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := ld.loadClean(imp, dir)
		if err != nil {
			t.Fatal(err)
		}
		tn, ok := pkg.Scope().Lookup(parts[1]).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == parts[2] && isSyncType(f.Type(), "Mutex", "RWMutex") {
				return true
			}
		}
	}
	return false
}
