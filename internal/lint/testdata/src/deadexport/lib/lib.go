// Package lib is the deadexport fixture's library. The consumer package
// (../use) and lib_test.go are loaded with it: a use from use counts, a
// use from the test file does not.
package lib

// Used has a consumer in another package.
func Used() int { return reached() }

// reached is unexported and reached from Used.
func reached() int { return 1 }

// Unused has no use at all.
func Unused() {} // want "func Unused has no consumer outside tests \(nothing uses it\)"

// TestOnly is called only from lib_test.go.
func TestOnly() {} // want "func TestOnly has no consumer outside tests \(only tests use it\)"

// testOnly is an unexported func only a test reaches.
func testOnly() {} // want "func testOnly has no consumer outside tests \(only tests use it\)"

// Recursive calls only itself, which is no use.
func Recursive(n int) int { // want "func Recursive has no consumer"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Limit is a const nothing reads.
const Limit = 3 // want "const Limit has no consumer"

// Config is used; one of its fields is not.
type Config struct {
	Live int
	Dead int // want "field Config.Dead has no consumer"
	// Wire is filled by encoding/json, which no use records.
	Wire int `json:"wire"`
}

// Name's String satisfies fmt.Stringer, so fmt calls it by name.
type Name string

func (n Name) String() string { return "name:" + string(n) }

// Box is generic; Get is used only through an instantiation.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Allowed is dead, and a directive suppresses the finding.
func Allowed() {} //lint:allow deadexport fixture: a module rule's finding is suppressed like a package rule's
