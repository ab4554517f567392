package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestManualAdvanceFiresAtDeadlines(t *testing.T) {
	s := NewManual()
	defer s.Close()

	durations := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	chans := make([]<-chan time.Time, len(durations))
	for i, d := range durations {
		chans[i] = s.After(d)
	}
	s.Advance(time.Minute)

	for i, d := range durations {
		select {
		case tm := <-chans[i]:
			if want := simEpoch.Add(d); !tm.Equal(want) {
				t.Fatalf("timer %d fired at %v, want %v", i, tm, want)
			}
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
	if got := s.Since(simEpoch); got != time.Minute {
		t.Fatalf("elapsed = %v, want 1m", got)
	}
}

func TestManualAdvancePartial(t *testing.T) {
	s := NewManual()
	defer s.Close()

	ch := s.After(10 * time.Second)
	s.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before its deadline")
	default:
	}
	s.Advance(time.Second)
	select {
	case tm := <-ch:
		if want := simEpoch.Add(10 * time.Second); !tm.Equal(want) {
			t.Fatalf("fire time = %v, want %v", tm, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestAutoAdvanceSleep(t *testing.T) {
	eachWindow(t, func(t *testing.T, s *Sim) {
		start := s.Now()
		s.Sleep(48 * time.Hour) // two days of virtual time
		if got := s.Since(start); got < 48*time.Hour {
			t.Fatalf("elapsed = %v, want >= 48h", got)
		}
	})
}

func TestAutoAdvanceManyGoroutines(t *testing.T) {
	eachWindow(t, func(t *testing.T, s *Sim) {
		const n = 64
		var done int32
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.Sleep(time.Duration(i+1) * time.Second)
				atomic.AddInt32(&done, 1)
			}(i)
		}
		wg.Wait()
		if done != n {
			t.Fatalf("done = %d, want %d", done, n)
		}
		if got := s.Since(simEpoch); got < n*time.Second {
			t.Fatalf("virtual elapsed = %v, want >= %ds", got, n)
		}
	})
}

func TestTimerStop(t *testing.T) {
	s := NewManual()
	defer s.Close()

	tm := s.NewTimer(5 * time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	s.Advance(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
}

func TestTimerReset(t *testing.T) {
	s := NewManual()
	defer s.Close()

	tm := s.NewTimer(5 * time.Second)
	tm.Stop()
	tm.Reset(3 * time.Second)
	s.Advance(3 * time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
}

func TestAfterFunc(t *testing.T) {
	s := NewManual()
	defer s.Close()

	fired := make(chan struct{})
	s.AfterFunc(7*time.Second, func() { close(fired) })
	s.Advance(7 * time.Second)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("AfterFunc did not run")
	}
}

func TestAfterFuncStop(t *testing.T) {
	s := NewManual()
	defer s.Close()

	var ran int32
	tm := s.AfterFunc(7*time.Second, func() { atomic.AddInt32(&ran, 1) })
	if !tm.Stop() {
		t.Fatal("Stop reported false")
	}
	s.Advance(time.Minute)
	time.Sleep(5 * time.Millisecond) // would-be goroutine launch window
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("stopped AfterFunc ran")
	}
}

func TestTickerDeliversRepeatedly(t *testing.T) {
	s := NewManual()
	defer s.Close()

	tk := s.NewTicker(10 * time.Second)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		s.Advance(10 * time.Second)
		select {
		case <-tk.C():
		case <-time.After(2 * time.Second):
			t.Fatalf("tick %d not delivered", i)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := NewManual()
	defer s.Close()

	tk := s.NewTicker(time.Second)
	tk.Stop()
	s.Advance(10 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
}

// TestTickerReset: Reset changes the period in place — the next tick is
// one new period from the Reset, whatever was left of the old one — and
// restarts a stopped ticker. The ticker re-arms itself as it fires, so
// ticks keep their grid while nobody receives them.
func TestTickerReset(t *testing.T) {
	s := NewManual()
	defer s.Close()
	tick := func(tk Ticker) bool {
		select {
		case <-tk.C():
			return true
		default:
			return false
		}
	}

	tk := s.NewTicker(10 * time.Second)
	defer tk.Stop()
	s.Advance(4 * time.Second)
	tk.Reset(time.Second)
	s.Advance(999 * time.Millisecond)
	if tick(tk) {
		t.Fatal("tick before the new period elapsed")
	}
	s.Advance(time.Millisecond)
	if !tick(tk) {
		t.Fatal("no tick one new period after Reset")
	}
	s.Advance(5 * time.Second) // five more deadlines, nobody receiving: one tick kept
	if !tick(tk) || tick(tk) {
		t.Fatal("want exactly one buffered tick after five unreceived periods")
	}
	if next, ok := s.NextDeadline(); !ok || next.Sub(s.Now()) != time.Second {
		t.Fatalf("next deadline %v from now (%v), want one period", next.Sub(s.Now()), ok)
	}

	tk.Stop()
	tk.Reset(2 * time.Second)
	s.Advance(2 * time.Second)
	if !tick(tk) {
		t.Fatal("Reset did not restart a stopped ticker")
	}
	s.Advance(2 * time.Second)
	if !tick(tk) {
		t.Fatal("restarted ticker ticked once only")
	}
}

func TestSleepNonPositiveReturnsImmediately(t *testing.T) {
	s := NewManual()
	defer s.Close()
	s.Sleep(0)
	s.Sleep(-time.Second)
	// Reaching here without Advance proves no parking happened.
	if n := s.PendingEvents(); n != 0 {
		t.Fatalf("pending events = %d, want 0", n)
	}
}

func TestCloseReleasesSleepers(t *testing.T) {
	s := NewManual()
	released := make(chan struct{})
	go func() {
		s.Sleep(time.Hour)
		close(released)
	}()
	waitPending(t, s, 1)
	s.Close()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release sleeper")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tk := c.NewTicker(time.Millisecond)
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker did not tick")
	}
	tk.Stop()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc did not run")
	}
	<-c.After(time.Millisecond)
}

// Property: for any set of sleep durations, advancing past the maximum
// wakes every sleeper, and virtual time never runs backwards.
func TestQuickAdvanceWakesAll(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		s := NewManual()
		defer s.Close()
		var wg sync.WaitGroup
		var max time.Duration
		for _, r := range raw {
			d := time.Duration(r%10000) * time.Millisecond
			if d > max {
				max = d
			}
			wg.Add(1)
			go func(d time.Duration) {
				defer wg.Done()
				s.Sleep(d)
			}(d)
		}
		waitPendingOK(s, countPositive(raw))
		s.Advance(max + time.Second)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func countPositive(raw []uint16) int {
	n := 0
	for _, r := range raw {
		if r%10000 > 0 {
			n++
		}
	}
	return n
}

// waitPending blocks until n events are parked on s or the test times out.
func waitPending(t *testing.T, s *Sim, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.PendingEvents() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d events parked, want %d", s.PendingEvents(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func waitPendingOK(s *Sim, n int) {
	deadline := time.Now().Add(5 * time.Second)
	for s.PendingEvents() < n && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}
