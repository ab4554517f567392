//go:build race

package clock

// raceEnabled: the binary was built with the race detector.
const raceEnabled = true

// windowSpan is how long one grace window lasts. Under the race detector
// the code that runs between two touches of the clock is several times
// slower, and two windows of graceWindow are too few for it (internal/chaos
// under -race: 1 run in 20 had a one-minute timeout overtake a kubelet
// restart). Five of them is the ≈ 1.1 ms a window lasted, race detector or
// not, for as long as an idle process rounded it up to a millisecond.
const windowSpan = 5 * graceWindow
