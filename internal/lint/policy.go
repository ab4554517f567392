package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// RuleConfig scopes one rule by module-relative path prefix and test
// membership. Empty Include means "everywhere"; Exclude wins over
// Include.
type RuleConfig struct {
	// Include limits the rule to packages whose module-relative path
	// has one of these prefixes ("." matches only the module root).
	Include []string `json:"include,omitempty"`
	// Exclude turns the rule off for matching packages.
	Exclude []string `json:"exclude,omitempty"`
	// SkipTests turns the rule off inside *_test.go files.
	SkipTests bool `json:"skipTests,omitempty"`
	// TestAllow lists function names the rule tolerates in test files
	// (wallclock: watchdog `time.After` in selects is legitimate test
	// hygiene, wall-time sleeps are not).
	TestAllow []string `json:"testAllow,omitempty"`
	// SinkPatterns adds order-sensitive callee-name regexes to
	// maporder's built-in sink set.
	SinkPatterns []string `json:"sinkPatterns,omitempty"`

	sinkRe []*regexp.Regexp
}

func (rc RuleConfig) appliesTo(relPath string) bool {
	match := func(prefixes []string) bool {
		for _, p := range prefixes {
			p = strings.TrimSuffix(p, "/")
			if p == relPath || strings.HasPrefix(relPath, p+"/") {
				return true
			}
		}
		return false
	}
	if match(rc.Exclude) {
		return false
	}
	if len(rc.Include) > 0 && !match(rc.Include) {
		return false
	}
	return true
}

func (rc RuleConfig) testAllows(name string) bool {
	for _, n := range rc.TestAllow {
		if n == name {
			return true
		}
	}
	return false
}

// Policy is the per-path rule configuration dlaas-vet loads from a
// JSON file at the module root (dlaas-vet.json by default).
type Policy struct {
	// Rules maps rule name to its scope config. Unlisted rules apply
	// everywhere with defaults.
	Rules map[string]RuleConfig `json:"rules,omitempty"`
}

// DefaultPolicy is the zero configuration: every rule everywhere.
func DefaultPolicy() *Policy {
	return &Policy{Rules: map[string]RuleConfig{}}
}

// LoadPolicy reads a policy file; a missing file yields the default
// policy so dlaas-vet works on bare checkouts.
func LoadPolicy(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return DefaultPolicy(), nil
	}
	if err != nil {
		return nil, err
	}
	p := DefaultPolicy()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("lint: policy %s: %w", path, err)
	}
	for name, rc := range p.Rules {
		for _, pat := range rc.SinkPatterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("lint: policy %s: rule %s sink pattern %q: %w", path, name, pat, err)
			}
			rc.sinkRe = append(rc.sinkRe, re)
		}
		p.Rules[name] = rc
	}
	return p, nil
}

// Rule returns the config for name (zero config when unlisted).
func (p *Policy) Rule(name string) RuleConfig {
	if p == nil || p.Rules == nil {
		return RuleConfig{}
	}
	return p.Rules[name]
}
