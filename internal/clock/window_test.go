package clock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// eachWindow runs f on a Sim whose loop waits on the platform's window and
// on one forced onto the runtime-timer fallback.
func eachWindow(t *testing.T, f func(t *testing.T, s *Sim)) {
	for _, c := range []struct {
		name string
		sim  func() *Sim
	}{
		{"default", NewSim},
		{"timer", func() *Sim { return newSim(timerWindow{}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.sim()
			defer s.Close()
			f(t, s)
		})
	}
}

// countingWindow counts the windows its loop has waited out.
type countingWindow struct {
	window
	n atomic.Int64
}

func (c *countingWindow) wait(d time.Duration, stop <-chan struct{}) bool {
	ok := c.window.wait(d, stop)
	if ok {
		c.n.Add(1)
	}
	return ok
}

// A Sim with nothing armed has nothing to jump to and does not poll to
// learn that; what is armed next fires at least one check window after its
// arm, and no longer than the quiet span and a millisecond, and the loop
// waits on its window to get there.
func TestEmptySimWaitsForArm(t *testing.T) {
	w := &countingWindow{window: newWindow()}
	s := newSim(w)
	defer s.Close()

	time.Sleep(50 * time.Millisecond)
	if n := w.n.Load(); n != 0 {
		t.Fatalf("%d waits in 50 ms with nothing armed, want 0", n)
	}

	var best time.Duration // of three, against a kernel time slice
	for i := 0; i < 3; i++ {
		start := time.Now()
		s.Sleep(time.Hour)
		wall := time.Since(start)
		if wall < checkAfter {
			t.Errorf("Sleep %d fired after %v of wall, want ≥ one check window (%v)", i, wall, checkAfter)
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	// A loop woken more than a check window after the arm (a time slice, or
	// -race beside busy CPUs) rightly looks before it waits, and may jump on
	// that look; one that never waits on its window is broken.
	if n := w.n.Load(); n < 1 {
		t.Errorf("three Sleeps fired after %d waits, want ≥ 1", n)
	}
	// The runtime timer alone rounds a window up to the millisecond.
	if _, rounded := w.window.(timerWindow); !rounded && best > quietSpan+time.Millisecond {
		t.Errorf("the fastest of three Sleeps fired after %v of wall, want ≤ %v", best, quietSpan+time.Millisecond)
	}

	time.Sleep(10 * time.Millisecond) // the loop finds the heap empty again
	settled := w.n.Load()
	time.Sleep(50 * time.Millisecond)
	if n := w.n.Load(); n != settled {
		t.Errorf("%d more waits in 50 ms after the heap emptied, want 0", n-settled)
	}
}

// spin computes for d without touching the clock or blocking.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// relayRing starts n goroutines that pass a token around a ring of
// unbuffered channels, about 1 µs of CPU a hop and no touch of the clock,
// and send on done after hops hops. With locked, each goroutine has an OS
// thread to itself, so every hop wakes another thread. stop ends the ring
// while no token is in it.
func relayRing(n, hops int, locked bool, done chan<- struct{}) (first chan<- int, stop func()) {
	ring := make([]chan int, n)
	for i := range ring {
		ring[i] = make(chan int)
	}
	for i := range ring {
		go func(in <-chan int, out chan<- int) {
			if locked {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			for hop := range in {
				spin(time.Microsecond)
				if hop == hops {
					done <- struct{}{}
				} else {
					out <- hop + 1
				}
			}
		}(ring[i], ring[(i+1)%n])
	}
	return ring[0], func() {
		for _, c := range ring {
			close(c)
		}
	}
}

// TestRunnableWorkHoldsTheClock: a goroutine that is running or runnable
// holds the clock, however long it goes without touching it, up to the
// quiet span. Each round touches the clock and then, without touching it
// again, relays a token 64 hops around a ring of four goroutines (the hops
// stay on one thread and wait on its run queue), or 12 hops around four
// goroutines on threads of their own (every hop wakes a thread), or
// computes for 100 µs on one goroutine. Only then is a 1 ms timer armed:
// the clock must not have moved to the pending hour-long timer first. A
// round whose work outlasted the quiet span proves nothing (the quiet span
// may end it), and is not counted.
func TestRunnableWorkHoldsTheClock(t *testing.T) {
	const rounds = 200
	eachWindow(t, func(t *testing.T, s *Sim) {
		far := s.NewTimer(time.Hour)
		defer far.Stop()
		done := make(chan struct{})
		relay, stopRelay := relayRing(4, 64, false, done)
		defer stopRelay()
		across, stopAcross := relayRing(4, 12, true, done)
		defer stopAcross()
		work := []struct {
			name  string
			start func()
		}{
			{"relay", func() { relay <- 1 }},
			{"relay across threads", func() { across <- 1 }},
			{"compute", func() {
				go func() {
					spin(100 * time.Microsecond)
					done <- struct{}{}
				}()
			}},
		}

		counted := 0
		for r := 0; r < rounds; r++ {
			w := work[r%len(work)]
			since := time.Now() // no later than the touch
			far.Reset(time.Hour)
			start := s.Now()
			w.start()
			<-done
			moved := s.Since(start)
			wall := time.Since(since)
			if wall >= quietSpan {
				continue // the quiet span may have ended it
			}
			counted++
			if moved != 0 {
				t.Fatalf("round %d (%s): the clock moved %v while work was runnable, within %v of wall after the last touch",
					r, w.name, moved, wall)
			}
			s.Sleep(time.Millisecond)
		}
		t.Logf("%d of %d rounds finished inside the quiet span", counted, rounds)
		if counted < rounds/2 {
			t.Skipf("only %d of %d rounds finished inside the quiet span", counted, rounds)
		}
	})
}

// A stopped ticker or timer can leave the loop a wake-up for a heap that is
// empty again; it must go back to blocking, and the next arm must not be
// lost.
func TestStaleArmTokenIsHarmless(t *testing.T) {
	eachWindow(t, func(t *testing.T, s *Sim) {
		for i := 0; i < 50; i++ {
			s.NewTimer(time.Hour).Stop()
			s.Sleep(time.Second)
		}
		if got := s.Since(simEpoch); got != 50*time.Second {
			t.Fatalf("virtual elapsed = %v, want 50s", got)
		}
	})
}
