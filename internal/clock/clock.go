// Package clock provides an abstraction over time so that the entire
// platform can run either against the wall clock (examples, live demos) or
// against a discrete-event virtual clock (tests and benchmarks, where
// multi-day training jobs and multi-second crash recoveries must complete
// in milliseconds of real time).
//
// All platform components take a Clock and never call the time package
// directly for scheduling. Durations handed to a Clock are always expressed
// in the modeled unit (seconds of "cluster time"), regardless of how fast
// the simulation actually runs.
//
// The virtual clock (Sim) is the platform's event core — an idle replicated
// etcd alone is twenty heartbeat rounds a virtual second — so its events
// are data rather than closures, and a Timer, a Ticker or a sleeping
// goroutine re-arms one struct in place: Reset, a tick and Sleep allocate
// nothing (budgets pinned by TestAllocBudget).
package clock

import "time"

// Clock is the time source used by every simulated component.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time

	// Sleep blocks the calling goroutine for d of clock time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)

	// After returns a channel that delivers the clock's time once d has
	// elapsed. The channel has capacity one and is never closed.
	After(d time.Duration) <-chan time.Time

	// AfterFunc schedules f to run in its own goroutine after d has
	// elapsed. The returned Timer can cancel the call before it fires.
	AfterFunc(d time.Duration, f func()) Timer

	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer

	// NewTicker returns a ticker that fires every d until stopped.
	NewTicker(d time.Duration) Ticker

	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Timer is the clock-agnostic equivalent of *time.Timer.
type Timer interface {
	// C returns the channel on which the firing time is delivered. For
	// an AfterFunc timer it is nil, like time.AfterFunc's: nothing is
	// ever delivered, the function runs instead.
	C() <-chan time.Time

	// Stop prevents the timer from firing. It reports whether the stop
	// canceled a pending firing.
	Stop() bool

	// Reset re-arms the timer to fire after d. Reset should only be
	// called on stopped or fired timers with a drained channel.
	Reset(d time.Duration)
}

// Ticker is the clock-agnostic equivalent of *time.Ticker.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time

	// Stop turns the ticker off. No more ticks are delivered.
	Stop()

	// Reset changes the period to d, in place: the next tick arrives d
	// from now and every d after it. It restarts a stopped ticker. Like
	// time.Ticker.Reset it does not drain a tick already delivered.
	Reset(d time.Duration)
}

// Real is a Clock backed by the operating-system wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock backed by the time package.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{t: time.NewTimer(d)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{t: time.NewTicker(d)} }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time   { return r.t.C }
func (r realTimer) Stop() bool            { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time   { return r.t.C }
func (r realTicker) Stop()                 { r.t.Stop() }
func (r realTicker) Reset(d time.Duration) { r.t.Reset(d) }
