//go:build !race

package clock

const raceEnabled = false

// windowSpan is how long one grace window lasts; see race.go.
const windowSpan = graceWindow
