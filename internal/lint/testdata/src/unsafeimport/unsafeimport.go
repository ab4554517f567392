// Package unsafeimport exercises the unsafe analyzer: importing unsafe is
// a finding wherever the policy has not scoped the rule out.
package unsafeimport

import "unsafe" // want "import of unsafe outside the packages"

// view aliases b as a string, with nothing to promise b stays unwritten.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// copied is the sanctioned alternative.
func copied(b []byte) string {
	return string(b)
}
