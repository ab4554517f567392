//go:build race

package raft

// raceEnabled: the race detector is on. sync.Pool then drops a quarter of
// its Puts on purpose, so a zero-object budget over a pooled value cannot
// hold; CI counts those without the detector.
const raceEnabled = true
