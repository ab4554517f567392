// Package maporder exercises the maporder analyzer: order-sensitive
// effects inside a map range are findings, and the collect-then-sort
// idiom plus per-key accumulation are the recognized escapes.
package maporder

import (
	"fmt"
	"io"
	"sort"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appends to keys in map order"
	}
	return keys
}

func badSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "sends on a channel in map order"
	}
}

func badConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want "concatenates a string in map order"
	}
	return s
}

func badWrite(m map[string]int, w io.Writer) {
	for k := range m {
		fmt.Fprintln(w, k) // want "fmt.Fprintln emits in map order"
	}
}

func badApply(m map[string]int) {
	for k, v := range m {
		apply(k, v) // want "calls order-sensitive function apply per key"
	}
}

func apply(string, int) {}

// sortedOK is the canonical escape: collect, sort, then use.
func sortedOK(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedTailOK appends to a caller's buffer and sorts what it added.
func sortedTailOK(dst []string, m map[string]int) []string {
	out := dst
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out[len(dst):])
	return out
}

// keyedOK accumulates per key — each entry is independent of the
// iteration order, so it is not a finding.
func keyedOK(m map[string]int) map[string][]int {
	out := make(map[string][]int)
	for k, v := range m {
		out[k] = append(out[k], v)
	}
	return out
}

// freshPerIterationOK appends to a slice declared inside the loop, so
// nothing ordered escapes the iteration.
func freshPerIterationOK(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		total += len(doubled)
	}
	return total
}
