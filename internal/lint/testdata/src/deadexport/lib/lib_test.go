package lib

import "testing"

func TestUses(t *testing.T) {
	TestOnly()
	testOnly()
	_ = Config{Dead: Limit}
}
