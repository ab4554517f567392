//go:build race

package dlaas

// raceEnabled: the race detector is on. sync.Pool then drops a quarter of
// its Puts on purpose, and the instrumentation allocates, so an object
// budget cannot hold; CI counts objects without the detector.
const raceEnabled = true
