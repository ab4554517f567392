package etcd

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// marginWriters × marginPuts is the closed loop of
// TestMakespanHoldsBesideCPUHogs: about 40 virtual instants, each of which
// costs some 40 ms of two saturated CPUs in the half of the test that runs
// beside the hogs. (The README's ledger has the 2 × 200 load, run by hand.)
const marginWriters, marginPuts = 2, 12

// closedLoopMakespan boots a fresh 3-replica store on its own
// idle-advancing clock, has each writer Put marginPuts seeded keys one
// after the other, and returns the virtual time from boot to the last
// reply — the first election included — and how many Puts failed.
func closedLoopMakespan(seed int64) (makespan time.Duration, failed int64) {
	clk := clock.NewSim()
	defer clk.Close()
	s := New(3, clk)
	defer s.Close()

	var wg sync.WaitGroup
	var fails atomic.Int64
	start := clk.Now()
	for w := 0; w < marginWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*marginWriters + int64(w)))
			for i := 0; i < marginPuts; i++ {
				key := fmt.Sprintf("/margin/w%d/k%02d", w, rng.Intn(32))
				if _, err := s.Put(key, fmt.Sprintf("v%d-%d", i, rng.Int63())); err != nil {
					fails.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return clk.Since(start), fails.Load()
}

// TestMakespanHoldsBesideCPUHogs is the regression test for "the grace
// window got too short for this tree". The idle-advance loop takes two
// windows of silence to mean every goroutine is parked; a goroutine that
// is merely waiting for a CPU is silent too, and when the clock overtakes
// it, its timeouts fire and virtual durations stretch. The same seeded
// closed loop runs alone and beside one spinning goroutine per P: no Put
// may fail, and the virtual makespan beside the hogs must stay within the
// bound BENCHMARK.json gives makespan_virtual_s.
//
// Beside ten-millisecond time slices the clock does overtake a hand-off
// now and then, whatever the window is made of (the README has the runs at
// the commit before it changed), and each time costs this short loop up to
// a heartbeat interval. That noise has one sign — nothing makes a run shorter than the
// undisturbed one — so the best of the five runs is compared: a window the
// tree cannot live with stretches every run (× 3.3–4.5 when the loop waited
// on a timerfd through the netpoller).
func TestMakespanHoldsBesideCPUHogs(t *testing.T) {
	if testing.Short() {
		t.Skip("ten closed-loop runs, five of them beside spinning CPUs")
	}
	const runs, bound = 5, 0.25
	measure := func(label string) []time.Duration {
		spans := make([]time.Duration, runs)
		for i := range spans {
			span, failed := closedLoopMakespan(int64(i + 1))
			if failed != 0 {
				t.Errorf("%s, run %d: %d of %d Puts failed", label, i, failed, marginWriters*marginPuts)
			}
			spans[i] = span
		}
		slices.Sort(spans)
		t.Logf("%s: virtual makespans %v", label, spans)
		return spans
	}

	alone := measure("alone")[runs/2]

	var stop atomic.Bool
	var hogs sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for !stop.Load() {
			}
		}()
	}
	beside := measure("beside hogs")
	stop.Store(true)
	hogs.Wait()

	t.Logf("beside hogs / alone median: best %.3f, median %.3f",
		float64(beside[0])/float64(alone), float64(beside[runs/2])/float64(alone))
	if ratio := float64(beside[0]) / float64(alone); ratio > 1+bound {
		t.Errorf("the best virtual makespan beside CPU hogs is %.2f× the quiet median (%v vs %v), bound %.2f×", ratio, beside[0], alone, 1+bound)
	}
}
