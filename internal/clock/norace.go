//go:build !race

package clock

import "time"

const raceEnabled = false

// quietSpan is how long nothing may touch the clock before the idle-advance
// loop jumps it: a goroutine silent for that long after its last touch is
// taken to be parked. See race.go for the span under the race detector.
const quietSpan = 300 * time.Microsecond
