//go:build !race

package raft

const raceEnabled = false
