// Package lockdiscipline exercises the lockdiscipline analyzer's pairing
// check. Lock copies are go vet's (the copylocks fixture).
package lockdiscipline

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func lockNoUnlock(g *guarded) {
	g.mu.Lock() // want "has no Unlock on any path"
	g.n++
}

func pairedOK(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

func closureReleaseOK(g *guarded) func() {
	g.mu.Lock()
	return func() { g.mu.Unlock() }
}

func pointerOK(gs []*guarded) int {
	total := 0
	for _, g := range gs {
		total += g.n
	}
	return total
}
