package clock

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

// timerfdWindowForTest returns the timerfd window, skipping where wall-clock
// assertions say nothing (-race) or the process cannot have a timerfd.
func timerfdWindowForTest(t *testing.T) *timerfdWindow {
	t.Helper()
	if raceEnabled {
		t.Skip("wall-clock assertion: not under -race")
	}
	w, ok := newWindow().(*timerfdWindow)
	if !ok {
		t.Skip("no timerfd in this process: the loop runs on the runtime timer")
	}
	t.Cleanup(w.close)
	return w
}

// A window lasts one beat, never less than graceWindow, not the
// millisecond an idle Go process rounds a runtime timer up to (≈ 1.1 ms
// measured).
func TestWindowDuration(t *testing.T) {
	w := timerfdWindowForTest(t)
	stop := make(chan struct{})
	walls := make([]time.Duration, 200)
	for i := range walls {
		start := time.Now()
		w.wait(stop)
		walls[i] = time.Since(start)
	}
	slices.Sort(walls)
	if walls[0] < graceWindow {
		t.Errorf("shortest window %v, want ≥ %v", walls[0], graceWindow)
	}
	median := walls[len(walls)/2]
	t.Logf("window: min %v, median %v, p90 %v", walls[0], median, walls[len(walls)*9/10])
	if median > 2*graceWindow {
		t.Errorf("median window %v, want ≤ %v", median, 2*graceWindow)
	}
}

// A loop that comes back late still waits a whole window, but not a whole
// beat: the descriptor is re-armed one-shot on entry, not ticking on a
// period of its own, for what is left of the beat and no less than
// graceWindow.
func TestLateWaitLastsAWholeWindow(t *testing.T) {
	w := timerfdWindowForTest(t)
	stop := make(chan struct{})
	walls := make([]time.Duration, 50)
	for i := range walls {
		w.wait(stop)
		for late := time.Now(); time.Since(late) < 150*time.Microsecond; {
		}
		start := time.Now()
		w.wait(stop)
		walls[i] = time.Since(start)
		if walls[i] < graceWindow {
			t.Fatalf("a wait entered 150 µs late lasted %v, want ≥ %v", walls[i], graceWindow)
		}
	}
	slices.Sort(walls)
	if median := walls[len(walls)/2]; median >= windowBeat {
		t.Errorf("a wait entered 150 µs late lasted %v (median), want less than a beat (%v): lateness is made up", median, windowBeat)
	}
}

// TestWindowKeepsTheBeat: what the loop does between two windows, and what
// a wake-up costs, is taken out of the next window, so a run of windows
// lasts its beats whether the loop is quick or slow between them.
func TestWindowKeepsTheBeat(t *testing.T) {
	const n = 200
	perWindow := func(busy time.Duration) time.Duration {
		w := timerfdWindowForTest(t)
		stop := make(chan struct{})
		w.wait(stop)
		start := time.Now()
		for i := 0; i < n; i++ {
			for at := time.Now(); time.Since(at) < busy; {
			}
			w.wait(stop)
		}
		return time.Since(start) / n
	}
	quick, slow := perWindow(0), perWindow(20*time.Microsecond)
	t.Logf("wall per window: %v with nothing between windows, %v with 20µs of work (beat %v)", quick, slow, windowBeat)
	for _, got := range []time.Duration{quick, slow} {
		// Not ahead of the beat (without one a window is graceWindow plus
		// the wake-up, ≈ 240 µs, plus the work); behind it by what the
		// wake-ups longer than the beat leaves room for cost.
		if got < windowBeat-windowBeat/20 || got > 2*graceWindow {
			t.Errorf("wall per window %v, want one beat (%v)", got, windowBeat)
		}
	}
}

// TestInstantWallCost: a virtual instant costs its two windows, which is
// two beats (0.6 ms; 2.3 ms when a window was a runtime timer).
func TestInstantWallCost(t *testing.T) {
	timerfdWindowForTest(t)
	s := NewSim()
	defer s.Close()
	walls := make([]time.Duration, 500)
	for i := range walls {
		start := time.Now()
		s.Sleep(time.Second)
		walls[i] = time.Since(start)
	}
	if got := s.Instants(); got != uint64(len(walls)) {
		t.Fatalf("%d instants for %d sleeps", got, len(walls))
	}
	slices.Sort(walls)
	median := walls[len(walls)/2]
	t.Logf("instant: min %v, median %v, p90 %v", walls[0], median, walls[len(walls)*9/10])
	if median >= time.Millisecond {
		t.Errorf("median instant %v of wall, want < 1ms", median)
	}
}

// openFDs lists what /proc/self/fd links to, sorted.
func openFDs(t *testing.T) []string {
	t.Helper()
	const dir = "/proc/self/fd"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skip(err)
	}
	var links []string
	for _, e := range entries {
		// The descriptor ReadDir itself held is gone by now.
		if l, err := os.Readlink(dir + "/" + e.Name()); err == nil {
			links = append(links, l)
		}
	}
	slices.Sort(links)
	return links
}

const listFDsEnv = "CLOCK_TEST_LIST_FDS"

// TestSimDescriptorLifetime: a Sim's timerfd is released by the time Close
// returns, and no child process inherits one.
func TestSimDescriptorLifetime(t *testing.T) {
	if os.Getenv(listFDsEnv) != "" { // the child below
		fmt.Println(strings.Join(openFDs(t), "\n"))
		return
	}
	before := openFDs(t)
	for i := 0; i < 2000; i++ {
		NewSim().Close()
	}
	if after := openFDs(t); len(after) != len(before) {
		t.Errorf("descriptors after 2000 NewSim+Close: %d, before: %d\n%v", len(after), len(before), after)
	}

	s := NewSim()
	defer s.Close()
	if mine := strings.Join(openFDs(t), "\n"); !strings.Contains(mine, "timerfd") {
		t.Skipf("no timerfd in this process: the loop runs on the runtime timer\n%s", mine)
	}
	child := exec.Command(os.Args[0], "-test.run=^TestSimDescriptorLifetime$")
	child.Env = append(os.Environ(), listFDsEnv+"=1")
	out, err := child.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "timerfd") {
		t.Errorf("a child process inherited a Sim's timerfd:\n%s", out)
	}
}
