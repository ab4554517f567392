// Package copylocks holds the lock copies dlaas-vet's lockdiscipline
// rule leaves to go vet: `go vet` must reject this package, once for each
// function below.
package copylocks

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// copyParam passes a lock by value.
func copyParam(g guarded) int {
	return g.n
}

// copyAssign copies a lock by assignment.
func copyAssign(g *guarded) {
	snapshot := *g
	inspect(&snapshot)
}

func inspect(*guarded) {}

// copyRange copies a lock into the range variable.
func copyRange(gs []guarded) int {
	total := 0
	for _, g := range gs {
		total += g.n
	}
	return total
}
