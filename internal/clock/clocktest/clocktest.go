// Package clocktest drives a manual clock.Sim under a system of
// goroutines so that the same inputs give the same virtual timeline on
// every run, whatever the machine is doing: time moves only while every
// goroutine is blocked. It is for tests that compare two timelines
// instant by instant, where the idle-advance loop's real-time quiet span
// would make a busy machine part of the input.
package clocktest

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/clock"
)

// Run advances clk by d one instant at a time: it moves the clock to
// the earliest pending deadline, which fires that instant's events, and
// waits until the goroutines they woke have run as far as they can —
// arming, at that same instant, whatever they wait for next — before it
// looks for the next deadline. The caller must be the only goroutine
// that advances clk, and must not run beside parallel tests.
func Run(clk *clock.Sim, d time.Duration) {
	end := clk.Now().Add(d)
	dump := make([]byte, 1<<20) // grown by quiesce if the stacks outgrow it
	for quiesce(&dump); ; quiesce(&dump) {
		next, ok := clk.NextDeadline()
		if !ok || next.After(end) {
			break
		}
		clk.Advance(next.Sub(clk.Now()))
	}
	clk.Advance(end.Sub(clk.Now()))
}

// quiesce returns once every goroutine but the caller is blocked on
// another goroutine — on a channel, a select, a lock — in a dump of all
// stacks, which the runtime takes with the world stopped. buf is where
// the dump goes.
func quiesce(buf *[]byte) {
	for {
		dump := (*buf)[:runtime.Stack(*buf, true)]
		if len(dump) == len(*buf) {
			*buf = make([]byte, 2*len(*buf)) // truncated: take it again
			continue
		}
		if allBlocked(dump) {
			return
		}
		runtime.Gosched()
	}
}

// blockedStates are the prefixes of the wait reasons of a goroutine that
// only another goroutine can wake. Any other state — runnable, running,
// and the waits the runtime itself ends, such as a goroutine parked
// while it drives a GC phase — counts as still at work.
var blockedStates = [][]byte{[]byte("chan "), []byte("select"), []byte("sync."), []byte("IO wait")}

// allBlocked reports whether every goroutine after the first in dump
// (the first is the one that took it) is blocked. Each starts with a
// line such as "goroutine 12 [select, 2 minutes]:", followed by the
// function it is in.
func allBlocked(dump []byte) bool {
	header := []byte("\ngoroutine ")
next:
	for {
		i := bytes.Index(dump, header)
		if i < 0 {
			return true
		}
		dump = dump[i+len(header):]
		state := dump[bytes.IndexByte(dump, '[')+1:]
		for _, b := range blockedStates {
			if bytes.HasPrefix(state, b) {
				continue next
			}
		}
		// A semaphore wait is sync's (WaitGroup.Wait, before it had a
		// wait reason of its own) or the runtime's, which an allocation
		// can enter to start a GC cycle; only the first is blocked.
		frame := state[bytes.IndexByte(state, '\n')+1:]
		if bytes.HasPrefix(state, []byte("semacquire")) && bytes.HasPrefix(frame, []byte("sync.")) {
			continue
		}
		return false
	}
}
