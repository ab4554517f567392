package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// entered is a manual clock that tells the test when SleepUntil has read
// its start time, so the test's Advance cannot slip in ahead of it.
type entered struct {
	*Sim
	once sync.Once
	read chan struct{}
}

func newEntered() *entered { return &entered{Sim: NewManual(), read: make(chan struct{})} }

func (e *entered) Now() time.Time {
	now := e.Sim.Now()
	e.once.Do(func() { close(e.read) })
	return now
}

// sleepUntil starts SleepUntil on its own goroutine and returns once it
// has taken its start time; the result arrives on the returned channel.
func sleepUntil(e *entered, period time.Duration, wake, stop <-chan struct{}) <-chan bool {
	done := make(chan bool, 1)
	go func() { done <- SleepUntil(e, period, wake, stop) }()
	<-e.read
	return done
}

func result(t *testing.T, done <-chan bool) bool {
	t.Helper()
	select {
	case ok := <-done:
		return ok
	case <-time.After(5 * time.Second):
		t.Fatal("SleepUntil did not return")
		return false
	}
}

// returnsAt reports whether a SleepUntil(period) whose wake is signalled
// change after the call returns at exactly want after it — not a
// nanosecond sooner — having parked nothing on the clock until the
// signal.
func returnsAt(period, change, want time.Duration) bool {
	e := newEntered()
	defer e.Close()
	wake := make(chan struct{}, 1)
	done := sleepUntil(e, period, wake, nil)
	e.Advance(change)
	if e.PendingEvents() != 0 {
		return false // waiting for a change must cost no clock event
	}
	wake <- struct{}{}
	waitPendingOK(e.Sim, 1)
	e.Advance(want - change - 1)
	if e.PendingEvents() != 1 {
		return false // returned before its tick
	}
	e.Advance(1)
	select {
	case ok := <-done:
		return ok
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestSleepUntilReturnsOnFirstTickAfterChange: the wait ends on the
// cadence grid counted from the call, at the first tick strictly after
// the change — where the plain Sleep(period) loop would first see it.
func TestSleepUntilReturnsOnFirstTickAfterChange(t *testing.T) {
	for _, c := range []struct{ period, change, want time.Duration }{
		{500 * time.Millisecond, 1, 500 * time.Millisecond},
		{500 * time.Millisecond, 499 * time.Millisecond, 500 * time.Millisecond},
		{500 * time.Millisecond, 1700 * time.Millisecond, 2 * time.Second},
		// A change landing exactly on a tick is taken on the following one.
		{500 * time.Millisecond, 500 * time.Millisecond, time.Second},
		{20 * time.Millisecond, 3 * time.Second, 3020 * time.Millisecond},
	} {
		if !returnsAt(c.period, c.change, c.want) {
			t.Errorf("period %v, change at %v: did not return at exactly %v", c.period, c.change, c.want)
		}
	}
	generated := func(p, c uint16) bool {
		period := time.Duration(p%1000+1) * time.Millisecond
		change := time.Duration(c%5000)*time.Millisecond + time.Duration(c%7)*time.Microsecond
		return returnsAt(period, change, (change/period+1)*period)
	}
	if err := quick.Check(generated, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A token already pending makes the wait a plain Sleep(period).
func TestSleepUntilPendingTokenSleepsOnePeriod(t *testing.T) {
	e := newEntered()
	defer e.Close()
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	done := sleepUntil(e, time.Second, wake, nil)
	waitPending(t, e.Sim, 1)
	e.Advance(time.Second - 1)
	if e.PendingEvents() != 1 {
		t.Fatal("returned before one period had passed")
	}
	e.Advance(1)
	if !result(t, done) {
		t.Fatal("SleepUntil = false with no stop")
	}
}

// stop ends either half of the wait with false and leaves nothing parked.
func TestSleepUntilStopWins(t *testing.T) {
	e := newEntered()
	defer e.Close()
	wake, stop := make(chan struct{}, 1), make(chan struct{})
	done := sleepUntil(e, time.Second, wake, stop)
	close(stop)
	if result(t, done) {
		t.Fatal("stopped while waiting for a change: SleepUntil = true")
	}

	e = newEntered()
	defer e.Close()
	stop = make(chan struct{})
	done = sleepUntil(e, time.Second, wake, stop)
	wake <- struct{}{}
	waitPending(t, e.Sim, 1)
	close(stop)
	if result(t, done) {
		t.Fatal("stopped while sleeping to the tick: SleepUntil = true")
	}
	if n := e.PendingEvents(); n != 0 {
		t.Fatalf("%d events left parked after a stopped wait", n)
	}
}

// Rearm is what lets a select loop keep one timer: a tick that fired but
// was never received must not end the next wait.
func TestRearmDiscardsUnreceivedTick(t *testing.T) {
	s := NewManual()
	defer s.Close()
	tm := s.NewTimer(time.Second)
	s.Advance(time.Second) // fires into the channel; nobody receives
	Rearm(tm, time.Minute)
	select {
	case <-tm.C():
		t.Fatal("re-armed timer delivered the previous firing")
	default:
	}
	s.Advance(time.Minute)
	select {
	case <-tm.C():
	default:
		t.Fatal("re-armed timer did not fire")
	}
	Rearm(tm, time.Second) // received: nothing to discard
	s.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer re-armed after a received tick did not fire")
	}
}

// Instants counts moves of the clock to a later deadline, not events.
func TestInstantsCountsDistinctDeadlines(t *testing.T) {
	s := NewManual()
	defer s.Close()
	s.After(time.Second)
	s.After(time.Second)
	s.After(2 * time.Second)
	s.Advance(time.Minute) // an Advance past the last event is no instant
	if got := s.Instants(); got != 2 {
		t.Fatalf("Instants() = %d after three events on two deadlines, want 2", got)
	}
}
