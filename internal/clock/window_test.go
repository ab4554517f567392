package clock

import (
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
		{"timer", func() *Sim { return newSim(&timerWindow{}) }},
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

func (c *countingWindow) wait(stop <-chan struct{}) bool {
	ok := c.window.wait(stop)
	if ok {
		c.n.Add(1)
	}
	return ok
}

// A Sim with nothing armed has nothing to jump to and does not poll to
// learn that; what is armed next still waits out two quiet windows.
func TestEmptySimWaitsForArm(t *testing.T) {
	w := &countingWindow{window: newWindow()}
	s := newSim(w)
	defer s.Close()

	time.Sleep(50 * time.Millisecond)
	if n := w.n.Load(); n != 0 {
		t.Fatalf("%d windows in 50 ms with nothing armed, want 0", n)
	}

	start := time.Now()
	s.Sleep(time.Hour)
	if wall := time.Since(start); wall < 2*graceWindow {
		t.Errorf("the first Sleep fired after %v of wall, want two windows (%v)", wall, 2*graceWindow)
	}
	if n := w.n.Load(); n < 2 {
		t.Errorf("the first Sleep fired after %d windows, want 2", n)
	}

	time.Sleep(10 * time.Millisecond) // the loop finds the heap empty again
	settled := w.n.Load()
	time.Sleep(50 * time.Millisecond)
	if n := w.n.Load(); n != settled {
		t.Errorf("%d more windows in 50 ms after the heap emptied, want 0", n-settled)
	}
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
