//go:build race

package clock

import "time"

// raceEnabled: the binary was built with the race detector.
const raceEnabled = true

// quietSpan is how long nothing may touch the clock before the idle-advance
// loop jumps it. Under the race detector the code that runs between two
// touches of the clock is several times slower, and 300 µs is too little
// for it (internal/chaos under -race, at 0.4 ms: 1 run in 20 had a
// one-minute timeout overtake a kubelet restart). 1.1 ms is what -race runs
// have always had: the millisecond an idle process rounded a runtime timer
// up to, and then the beat that replaced it.
const quietSpan = 1100 * time.Microsecond
