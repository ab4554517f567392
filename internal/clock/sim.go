package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a discrete-event virtual clock.
//
// Goroutines that Sleep or wait on timers are parked on an event heap keyed
// by virtual deadline. Virtual time advances in one of two ways:
//
//   - Explicitly, via Advance (deterministic unit tests).
//   - Automatically, via the idle-advance loop started by NewSim: once no
//     virtual event has fired or been scheduled for quietSpan of real time
//     and at least one waiter exists, the clock jumps to the earliest
//     pending deadline — sooner, once the loop has seen that nothing else
//     in the process can run (see threadWatch on Linux). This lets a fully
//     concurrent system of goroutines (services, kubelets, Raft nodes,
//     training jobs) run "as fast as the CPU allows" while every measured
//     duration stays in virtual units. The price is a tolerance: a
//     goroutine that is running or runnable holds the clock for up to
//     quietSpan (0.3 ms) after the last touch; one that waits on the wall
//     clock (a syscall, a runtime timer) holds it not at all.
//
// What an event does when it fires is data, not a closure (see event), and
// timers, tickers and sleepers own their event and re-arm it in place: a
// Reset, a tick or a Sleep allocates nothing, and the idle-advance loop
// reuses one real-time window (see window) and one batch buffer, and
// blocks without polling while nothing is armed.
//
// The zero value is not usable; construct with NewSim or NewManual.
type Sim struct {
	mu       sync.Mutex
	now      time.Time
	events   eventHeap
	seq      uint64    // event sequence, breaks deadline ties FIFO
	touched  time.Time // real (monotonic) time of the last schedule or fire; read by idle-advance
	instants uint64    // distinct virtual instants fired so far
	closed   bool
	stop     chan struct{}
	stopOnce sync.Once
	armed    chan struct{} // the heap went from empty to non-empty; wakes an idle-advance loop with nothing to jump to
	loopDone chan struct{} // closed when the idle-advance loop has exited; nil on a manual clock
}

var _ Clock = (*Sim)(nil)

// simEpoch is the instant at which every simulation starts. A fixed epoch
// keeps runs reproducible and avoids reading the wall clock.
var simEpoch = time.Date(2018, time.May, 17, 0, 0, 0, 0, time.UTC)

// NewSim returns a virtual clock whose idle-advance loop is running.
// Call Close when the simulation is finished to release the loop.
func NewSim() *Sim { return newSim(newWindow()) }

// newSim starts the idle-advance loop on w, which the loop closes when it
// exits.
func newSim(w window) *Sim {
	s := &Sim{
		now:      simEpoch,
		stop:     make(chan struct{}),
		armed:    make(chan struct{}, 1),
		loopDone: make(chan struct{}),
	}
	go s.idleAdvance(w)
	return s
}

// NewManual returns a virtual clock that only advances via Advance.
// Intended for deterministic unit tests.
func NewManual() *Sim {
	return &Sim{now: simEpoch, stop: make(chan struct{})}
}

// Close stops the idle-advance loop and releases every parked waiter by
// draining all pending events at their scheduled deadlines.
func (s *Sim) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.loopDone != nil {
		<-s.loopDone // the loop's window, and its descriptor, are released
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Fire everything still pending so no goroutine leaks blocked on a
	// timer that can no longer advance. A closed clock queues nothing (arm
	// fires at once, tickers stop re-arming), so this drains.
	for {
		s.mu.Lock()
		if s.events.Len() == 0 {
			s.mu.Unlock()
			return
		}
		ev, when := s.popLocked()
		s.mu.Unlock()
		s.fire(ev, when)
	}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// sleepers recycles Sleep's waiters: an event and the channel it wakes on.
var sleepers = sync.Pool{New: func() any {
	return &event{kind: kindChan, ch: make(chan time.Time, 1)}
}}

// Sleep implements Clock.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ev := sleepers.Get().(*event)
	s.arm(ev, d)
	<-ev.ch
	sleepers.Put(ev)
}

// waitTimers recycles the timers of AcquireTimer.
var waitTimers = sync.Pool{New: func() any {
	t := &simTimer{event: event{kind: kindChan, ch: make(chan time.Time, 1)}}
	t.done = &t.fired // what marks a timer as pooled
	return t
}}

// AcquireTimer returns a timer that fires once, d from now on clk, for
// the wait-for-an-answer-or-give-up select that runs on every request and
// usually ends with the timer unfired. On a virtual clock the timer comes
// from a pool, so the wait allocates nothing; hand it back with
// ReleaseTimer, use it for that one wait, and do not Reset it.
func AcquireTimer(clk Clock, d time.Duration) Timer {
	s, ok := clk.(*Sim)
	if !ok {
		return clk.NewTimer(d)
	}
	t := waitTimers.Get().(*simTimer)
	t.s = s
	t.fired.Store(false)
	s.arm(&t.event, d)
	return t
}

// ReleaseTimer stops a timer obtained from AcquireTimer, fired or not,
// and lets the next AcquireTimer reuse it.
func ReleaseTimer(t Timer) {
	st, ok := t.(*simTimer)
	if !ok || st.done == nil {
		t.Stop()
		return
	}
	if !st.Stop() {
		// Popped from the heap. Its tick may still be on its way to the
		// channel, where it would end the next user's wait at once: only
		// a timer whose firing is over is safe to reuse.
		if !st.fired.Load() {
			return
		}
		select {
		case <-st.ch:
		default:
		}
	}
	waitTimers.Put(st)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ev := &event{kind: kindChan, ch: make(chan time.Time, 1)}
	s.arm(ev, d)
	return ev.ch
}

// AfterFunc implements Clock. Like time.AfterFunc's, the timer's channel
// is nil: nothing is ever delivered on C().
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	t := &simTimer{s: s, event: event{kind: kindFunc, f: f}}
	s.arm(&t.event, d)
	return t
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{s: s, event: event{kind: kindChan, ch: make(chan time.Time, 1)}}
	s.arm(&t.event, d)
	return t
}

// NewTicker implements Clock.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	t := &simTicker{s: s, event: event{kind: kindTicker, ch: make(chan time.Time, 1), period: d}}
	s.arm(&t.event, d)
	return t
}

// Advance moves virtual time forward by d, firing every event whose
// deadline falls inside the window in deadline order. Callbacks run
// without the clock lock held, so they may freely schedule follow-up
// events (tickers re-arm) inside the same window. It is primarily for
// manual clocks but is safe on auto clocks too.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	for {
		if s.events.Len() == 0 || s.events[0].when.After(target) {
			break
		}
		ev, when := s.popLocked()
		s.mu.Unlock()
		s.fire(ev, when)
		s.mu.Lock()
	}
	if target.After(s.now) {
		s.now = target
	}
	s.mu.Unlock()
}

// PendingEvents reports how many timers/sleepers are parked on the clock.
func (s *Sim) PendingEvents() int { //lint:allow deadexport test-observation point: clock, raft and nfs tests check what is parked on the clock
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events.Len()
}

// NextDeadline reports when the earliest parked event is due; ok is
// false when nothing is parked. Advancing a manual clock to exactly that
// instant fires that instant's events and no others, which is how a test
// steps a system one instant at a time.
func (s *Sim) NextDeadline() (when time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events.Len() == 0 {
		return time.Time{}, false
	}
	return s.events[0].when, true
}

// Instants reports how many distinct virtual instants have fired an
// event: every move of the clock to a later deadline, however many events
// share it. Under the idle-advance loop each one costs real time (the
// quiet span it waits out first), so this is the count a poll loop that
// wakes to learn nothing inflates.
func (s *Sim) Instants() uint64 { //lint:allow deadexport ROADMAP item 1b's clock.instants_per_op row reads it; the instant-budget tests do today
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instants
}

// eventKind says what firing an event does.
type eventKind uint8

const (
	kindChan   eventKind = iota // deliver the instant on ch: After, NewTimer, Sleep
	kindFunc                    // run f in its own goroutine: AfterFunc
	kindTicker                  // deliver on ch, then re-arm period ahead
)

// event is one scheduled occurrence on the virtual timeline. Its owner (a
// timer, a ticker, a pooled sleeper) re-arms the same struct for every
// firing, so it is in the heap at most once. kind, ch and f are fixed at
// construction and read without the lock by fire; everything else is
// guarded by Sim.mu.
type event struct {
	when   time.Time
	seq    uint64
	index  int  // heap index, meaningful while queued
	queued bool // in the heap: armed and not yet popped or canceled
	off    bool // stopped ticker: fire no longer re-arms it

	kind   eventKind
	ch     chan time.Time
	f      func()
	period time.Duration
	done   *atomic.Bool // pooled wait timers only: set once a firing has delivered on ch
}

// arm (re-)schedules ev to fire d from now, moving it if still queued.
func (s *Sim) arm(ev *event, d time.Duration) {
	s.mu.Lock()
	s.armLocked(ev, d)
	s.mu.Unlock()
}

func (s *Sim) armLocked(ev *event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	ev.when = s.now.Add(d)
	ev.seq = s.seq
	s.seq++
	s.touched = time.Now()
	switch {
	case s.closed:
		// Clock already closed: fire immediately so callers never hang.
		s.cancelLocked(ev)
		go s.fire(ev, ev.when)
	case ev.queued:
		heap.Fix(&s.events, ev.index)
	default:
		if s.events.Len() == 0 {
			select { // nil on a manual clock: never ready
			case s.armed <- struct{}{}:
			default:
			}
		}
		heap.Push(&s.events, ev)
	}
}

// popLocked removes the earliest event, moving virtual time up to its
// deadline. The caller fires it at the returned instant without s.mu held.
func (s *Sim) popLocked() (*event, time.Time) {
	ev := heap.Pop(&s.events).(*event)
	if ev.when.After(s.now) {
		s.now = ev.when
		s.instants++
	}
	s.touched = time.Now()
	return ev, s.now
}

// fire performs a popped event. It runs without s.mu held, so a Stop or
// Reset that lost the race with the pop does not un-fire it.
func (s *Sim) fire(ev *event, now time.Time) {
	if ev.kind == kindFunc {
		go ev.f()
		return
	}
	select {
	case ev.ch <- now:
	default:
	}
	if ev.done != nil {
		ev.done.Store(true)
	}
	if ev.kind == kindTicker {
		s.mu.Lock()
		// A closed clock would fire the re-armed tick at once, forever.
		if !ev.off && !s.closed {
			s.armLocked(ev, ev.period)
		}
		s.mu.Unlock()
	}
}

// cancelLocked removes ev from the heap if still pending. Reports whether
// the event had not yet fired.
func (s *Sim) cancelLocked(ev *event) bool {
	if !ev.queued {
		return false
	}
	heap.Remove(&s.events, ev.index)
	return true
}

// idleAdvance is the auto-advance loop: once nothing has touched the clock
// for quietSpan and waiters exist, jump to the earliest deadline. Until
// then it sleeps for exactly what is left of the span, so a late wake-up
// is paid once per instant, not once per look — unless the window sees
// sooner that nothing else in the process can run (window.asleep), which
// it asks once the clock has been quiet for checkAfter, as often as its
// looks allow (looks). With nothing to jump to it blocks until something
// is armed.
func (s *Sim) idleAdvance(w window) {
	defer close(s.loopDone)
	defer w.close()
	var fires []*event   // this instant's events, reused across instants
	var budget looks     // looks at the threads
	var failed time.Time // when the last of them came back
	for {
		s.mu.Lock()
		if s.events.Len() == 0 {
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-s.armed:
			}
			continue
		}
		quiet := time.Since(s.touched)
		idle := min(quiet, time.Since(failed)) // nothing touched, nothing looked
		switch {
		case quiet >= quietSpan:
		case budget.left() && idle >= checkAfter:
			budget.looked = true
			if !s.seenAsleep(w) {
				failed = time.Now()
				s.mu.Unlock()
				continue
			}
		default:
			// Something real happened recently; give goroutines time
			// to run before jumping.
			wait := quietSpan - quiet
			if budget.left() {
				wait = min(wait, checkAfter-idle)
			}
			s.mu.Unlock()
			if !w.wait(wait, s.stop) {
				return
			}
			continue
		}
		budget.next(quiet < quietSpan)
		// Quiescent with pending events: jump to the next deadline and
		// fire every event scheduled for that same instant. Events fire
		// without the lock so they can schedule follow-up events.
		next := s.events[0].when
		fires = fires[:0]
		for s.events.Len() > 0 && !s.events[0].when.After(next) {
			ev, _ := s.popLocked()
			fires = append(fires, ev)
		}
		s.mu.Unlock()
		for i, ev := range fires {
			fires[i] = nil // do not keep a fired timer and its closure alive
			s.fire(ev, next)
		}
	}
}

// checkAfter is how long the clock must go untouched, and the last failed
// look at the threads lie behind, before the loop looks (again). So an
// instant holds at most quietSpan/checkAfter looks. A shorter window ends
// instants sooner, but leaves more of each one to wake-up latencies that
// move with the machine's load, and runs spread wider: measured on 2 cores,
// 20–40 µs read ≈ 50 fleet jobs a wall-second with a quartile distance
// 2–3 times that of 80 µs, which reads ≈ 38.
const checkAfter = 80 * time.Microsecond

// looks rations the loop's looks at the threads across instants, since a
// failed one is pure CPU. A process that runs several simulations, each
// looking at the others' busy threads, makes instants whose looks all
// failed follow one another: from the fourth in a row the loop skips
// looking for 1, 3, 7 … up to 63 instants, and a look that ends an instant
// starts that over. Measured on 2 cores: the chaos campaign (four
// simulations) enters the skip state in 3 % of its instants, and the ration
// takes its user+sys from 4.9 to 2.8 s and its wall from 3.6 to 3.1 s; a
// process with one simulation enters it in under 0.7 % of its instants.
type looks struct {
	looked bool // in this instant
	skip   int  // instants still to go without looking
	failed int  // instants in a row whose looks all failed
}

func (b *looks) left() bool { return b.skip == 0 }

// next closes an instant that a look ended (early) or the quiet span did.
func (b *looks) next(early bool) {
	switch {
	case early:
		b.failed = 0
	case b.looked:
		b.failed = min(b.failed+1, 9)
		b.skip = 1<<max(0, b.failed-3) - 1
	case b.skip > 0:
		b.skip--
	}
	b.looked = false
}

// seenAsleep asks the window whether nothing else in the process can run,
// and reports true if so and nothing touched the clock meanwhile. It is
// called with s.mu held, drops it for the look, and holds it again when it
// returns.
func (s *Sim) seenAsleep(w window) bool {
	touched := s.touched
	s.mu.Unlock()
	asleep := w.asleep()
	s.mu.Lock()
	return asleep && s.touched.Equal(touched) && s.events.Len() > 0
}

// simTimer is the Timer of AfterFunc (kindFunc, nil channel) and NewTimer
// (kindChan).
type simTimer struct {
	event
	s *Sim
	// fired is the event's done in a timer from AcquireTimer: it tells
	// ReleaseTimer a finished firing from one still on its way to ch.
	fired atomic.Bool
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.cancelLocked(&t.event)
}

// Reset re-arms the timer with its original behavior — like
// time.Timer.Reset, an AfterFunc timer runs its function again, not a
// bare channel send (a Reset that dropped the function would, e.g., let
// a kept-alive lease never expire).
func (t *simTimer) Reset(d time.Duration) { t.s.arm(&t.event, d) }

type simTicker struct {
	event
	s *Sim
}

func (t *simTicker) C() <-chan time.Time { return t.ch }

func (t *simTicker) Stop() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.off = true
	t.s.cancelLocked(&t.event)
}

func (t *simTicker) Reset(d time.Duration) {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.off, t.period = false, d
	t.s.armLocked(&t.event, d)
}

// eventHeap orders events by deadline, then scheduling order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index, ev.queued = len(*h), true
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.queued = false
	*h = old[:n-1]
	return ev
}
