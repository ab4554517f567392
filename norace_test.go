//go:build !race

package dlaas

const raceEnabled = false
