package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAllocBudget pins what each clock primitive costs in heap objects.
// Every budget is exact. The pooled cases are counted without the race
// detector only: under -race sync.Pool drops a quarter of its Puts on
// purpose, and whether testing.AllocsPerRun's floor hides that is luck.
func TestAllocBudget(t *testing.T) {
	s := NewManual()
	defer s.Close()

	ran := make(chan struct{})
	f := func() { ran <- struct{}{} }
	reused := s.NewTimer(time.Hour)
	ticks := NewManual() // its own clock, so no other case pays for a tick
	defer ticks.Close()
	tk := ticks.NewTicker(time.Second)
	defer tk.Stop()

	// One sleeper, driven a Sleep at a time.
	sleep, woke := make(chan struct{}), make(chan struct{})
	defer close(sleep)
	go func() {
		for range sleep {
			s.Sleep(time.Second)
			woke <- struct{}{}
		}
	}()

	for _, c := range []struct {
		name   string
		want   float64
		pooled bool
		run    func()
	}{
		{name: "AfterFunc", want: 1, run: func() { // the timer; no event, closure or channel
			s.AfterFunc(time.Second, f)
			s.Advance(time.Second)
			<-ran
		}},
		{name: "NewTimer", want: 3, run: func() { // timer + channel (header and buffer)
			tm := s.NewTimer(time.Second)
			s.Advance(time.Second)
			<-tm.C()
		}},
		{name: "After", want: 3, run: func() { // event + channel (header and buffer)
			ch := s.After(time.Second)
			s.Advance(time.Second)
			<-ch
		}},
		{name: "Sleep", want: 0, pooled: true, run: func() {
			parked := s.PendingEvents()
			sleep <- struct{}{}
			for s.PendingEvents() == parked {
				runtime.Gosched()
			}
			s.Advance(time.Second)
			<-woke
		}},
		{name: "Reset", want: 0, run: func() { reused.Reset(time.Hour) }},
		{name: "Stop", want: 0, run: func() { reused.Stop() }},
		{name: "ResetFire", want: 0, run: func() {
			reused.Reset(time.Second)
			s.Advance(time.Second)
			<-reused.C()
		}},
		{name: "Tick", want: 0, run: func() {
			ticks.Advance(time.Second)
			<-tk.C()
		}},
		{name: "TickerReset", want: 0, run: func() { // a change of period, there and back
			tk.Reset(10 * time.Second)
			tk.Reset(time.Second)
		}},
		// The pooled wait timer, both ways a wait ends.
		{name: "AcquireRelease", want: 0, pooled: true, run: func() { ReleaseTimer(AcquireTimer(s, time.Hour)) }},
		{name: "AcquireFire", want: 0, pooled: true, run: func() {
			tm := AcquireTimer(s, time.Second)
			s.Advance(time.Second)
			<-tm.C()
			ReleaseTimer(tm)
		}},
	} {
		if c.pooled && raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}

// TestIdleAdvanceAllocs: a virtual instant reached through the idle-advance
// loop — the wait for the quiet span, a batch of fires, one Sleep —
// allocates nothing.
func TestIdleAdvanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("Sleep's waiter is pooled: no zero budget under -race")
	}
	eachWindow(t, func(t *testing.T, s *Sim) {
		if got := testing.AllocsPerRun(100, func() { s.Sleep(time.Millisecond) }); got != 0 {
			t.Errorf("%v allocs per idle-advanced instant, want 0", got)
		}
	})
}

// In-place reuse keeps time.Timer's contract: a fired AfterFunc timer is
// not pending, its channel never delivers, and Reset runs f again.
func TestAfterFuncTimerReuse(t *testing.T) {
	s := NewManual()
	defer s.Close()

	ran := make(chan struct{}, 1)
	tm := s.AfterFunc(time.Second, func() { ran <- struct{}{} })
	for i := 0; i < 3; i++ {
		s.Advance(time.Second)
		select {
		case <-ran:
		case <-time.After(2 * time.Second):
			t.Fatalf("arming %d: f did not run", i)
		}
		select {
		case <-tm.C():
			t.Fatal("AfterFunc timer delivered on C()")
		default:
		}
		if tm.Stop() {
			t.Fatal("Stop after fire reported true")
		}
		tm.Reset(time.Second)
	}
	if !tm.Stop() {
		t.Fatal("Stop on re-armed timer reported false")
	}
}

func TestResetFromOwnCallback(t *testing.T) {
	s := NewManual()
	defer s.Close()

	ran := make(chan int)
	var tm Timer
	runs := 0
	tm = s.AfterFunc(time.Second, func() {
		runs++ // one run at a time: the next is armed only here
		if runs < 3 {
			tm.Reset(time.Second)
		}
		ran <- runs
	})
	for want := 1; want <= 3; want++ {
		s.Advance(time.Second)
		select {
		case got := <-ran:
			if got != want {
				t.Fatalf("run %d reported %d", want, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("run %d: Reset from inside f did not re-arm", want)
		}
	}
	if n := s.PendingEvents(); n != 0 {
		t.Fatalf("pending events = %d, want 0", n)
	}
}

// Stress for `go test -race -count=10`: timers Reset and Stopped while
// another goroutine fires them, and a ticker stopped mid-tick. An owner's
// one event is queued at most once, f runs at most once per arming, and
// nothing fires after the last Stop.
func TestConcurrentReuseStress(t *testing.T) {
	s := NewManual()
	defer s.Close()

	const timers, rounds = 8, 400
	tk := s.NewTicker(time.Millisecond)
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		for i := 0; i < rounds; i++ {
			s.Advance(time.Millisecond)
			if n := s.PendingEvents(); n > timers+1 {
				t.Errorf("%d events queued for %d owners", n, timers+1)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var armed, ran [timers]atomic.Int64
	for i := 0; i < timers; i++ {
		i := i
		var tm Timer
		armed[i].Add(1)
		if i%2 == 0 {
			tm = s.AfterFunc(time.Millisecond, func() { ran[i].Add(1) })
		} else {
			tm = s.NewTimer(time.Millisecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if (i+j)%3 == 0 {
					tm.Stop()
				} else {
					armed[i].Add(1)
					tm.Reset(time.Duration(j%3) * time.Millisecond)
				}
				runtime.Gosched()
			}
			tm.Stop()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			select {
			case <-tk.C():
			default:
				runtime.Gosched()
			}
		}
		tk.Stop()
	}()
	wg.Wait()
	<-advanced

	if n := s.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after every owner stopped", n)
	}
	select { // a tick popped before Stop may still have landed
	case <-tk.C():
	default:
	}
	s.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
	time.Sleep(5 * time.Millisecond) // would-be goroutine launch window
	for i := range ran {
		if r, a := ran[i].Load(), armed[i].Load(); r > a {
			t.Errorf("timer %d: f ran %d times for %d armings", i, r, a)
		}
	}
}

// A pooled wait timer handed out again must never carry the previous
// wait's tick — it would end the new wait at once, and a request would
// time out the moment it was made. The window is a waiter giving up
// between the clock popping its timer and the tick reaching the channel;
// this test holds it open.
func TestReleasedTimerDoesNotCarryItsTick(t *testing.T) {
	s := NewManual()
	defer s.Close()

	tm := AcquireTimer(s, time.Second)
	s.mu.Lock()
	ev, when := s.popLocked()
	s.mu.Unlock()
	ReleaseTimer(tm) // not pending any more, tick not delivered yet
	s.fire(ev, when)
	for i := 0; i < 8; i++ { // whatever the pool hands out next
		next := AcquireTimer(s, time.Hour)
		defer ReleaseTimer(next)
		select {
		case <-next.C():
			t.Fatal("a freshly acquired timer had already fired")
		default:
		}
	}

	// Released with the tick delivered but unread, it is recycled
	// (TestAllocBudget's AcquireFire row) and the tick is not.
	tm = AcquireTimer(s, time.Second)
	s.Advance(time.Second)
	ReleaseTimer(tm)
	again := AcquireTimer(s, time.Hour)
	defer ReleaseTimer(again)
	select {
	case <-again.C():
		t.Fatal("a recycled timer kept its unread tick")
	default:
	}
}

// Stress for `go test -race -count=10`: pooled wait timers acquired,
// waited on and given up while the clock fires them.
func TestPooledTimerNeverFiresEarly(t *testing.T) {
	s := NewManual()
	defer s.Close()

	const wait = 2 * time.Millisecond
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				armed := s.Now()
				tm := AcquireTimer(s, wait)
				if (i+w)%3 == 0 {
					// Give up at about the time it fires.
					for s.Now().Sub(armed) < wait-time.Millisecond && !stop.Load() {
						runtime.Gosched()
					}
				} else {
					select {
					case at := <-tm.C():
						if early := wait - at.Sub(armed); early > 0 {
							t.Errorf("worker %d wait %d: a %v timer fired %v early", w, i, wait, early)
							stop.Store(true)
						}
					case <-time.After(5 * time.Second):
						t.Errorf("worker %d wait %d: timer never fired", w, i)
						stop.Store(true)
					}
				}
				ReleaseTimer(tm)
			}
		}(w)
	}
	for i := 0; i < 1000 && !stop.Load(); i++ {
		s.Advance(time.Millisecond)
		runtime.Gosched()
	}
	stop.Store(true)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for { // a worker parked on its timer needs the clock to move
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
			s.Advance(wait)
		}
	}
}

// A ticker nobody stopped must not outlive its clock: Close delivers the
// pending tick and the ticker does not re-arm, where it once fired itself
// in a goroutine chain that ate a core until the process exited.
func TestCloseStopsLiveTicker(t *testing.T) {
	s := NewManual()
	tk := s.NewTicker(10 * time.Millisecond)
	s.Close()
	select {
	case <-tk.C():
	default:
		t.Fatal("Close did not deliver the pending tick")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(50 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 1000 {
		t.Fatalf("%d mallocs in 50 ms after Close: the ticker is still firing", n)
	}
	select {
	case <-tk.C():
		t.Fatal("ticker ticked after Close")
	default:
	}
}
