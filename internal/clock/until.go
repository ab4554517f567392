package clock

import "time"

// SleepUntil is the wait of a poll loop whose pass looks only at things
// that announce their changes: it sleeps through every tick of the
// loop's cadence that would observe nothing. It blocks on wake and stop
// alone — no clock event is armed, so the wait is no instant on a
// virtual clock while nothing changes — and once wake delivers it sleeps
// to the next multiple of period counted from the call, the first tick
// strictly after the change. The caller's pass therefore runs at the
// instant the plain
//
//	for { pass(); clk.Sleep(period) }
//
// loop would first have seen the change, provided a pass that finds
// nothing new costs no clock time. A token already pending when the call
// is made is a plain sleep of one period.
//
// wake is a "look again" signal: capacity one, sent to without blocking
// by whatever changes what the pass reads, subscribed before the pass's
// first look so that a change landing mid-pass leaves a token. A pass
// that left work to retry — work nobody will announce — must take
// clk.Sleep(period) instead.
//
// It reports false, as soon as that happens, if stop delivers or is
// closed first; a nil stop never does.
func SleepUntil(clk Clock, period time.Duration, wake, stop <-chan struct{}) bool {
	start := clk.Now()
	select {
	case <-wake:
	case <-stop:
		return false
	}
	t := AcquireTimer(clk, period-clk.Since(start)%period)
	defer ReleaseTimer(t)
	select {
	case <-t.C():
		return true
	case <-stop:
		return false
	}
}

// Rearm re-arms t to fire d from now, for the select loop that keeps one
// timer across its passes: it stops the timer and discards a tick that
// beat the stop to the channel, so the next receive from C is the new
// firing.
func Rearm(t Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C():
		default:
		}
	}
	t.Reset(d)
}
