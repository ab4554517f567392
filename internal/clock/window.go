package clock

import "time"

// window is the real-time half of the idle-advance loop: what it sleeps on
// between two looks at the clock. The loop owns it and closes it on exit.
//
// Both implementations wait on a runtime timer, which ties the loop's
// wake-up to a scheduling pass of the P it last ran on, like the wake-up
// of every goroutine it has to outwait. What differs is how punctual the
// timer is when the process is idle, which is what a virtual instant
// costs: see timerfdWindow.
type window interface {
	// wait blocks until the next beat (see windowBeat) and in any case for
	// one windowSpan of real time, counted from the call however late the
	// call was made, or until stop is closed, which it reports with false.
	wait(stop <-chan struct{}) bool
	close()
}

// windowBeat is the period on which windows end while the loop keeps up.
// A wake-up is late by what the machine makes of it (the idle CPU's way out
// of its sleep state, a hypervisor, a busy neighbour: 20 to 100 µs, and a
// different figure from one minute to the next), and a loop that counted
// every window from its own late start would pass all of that on to the
// cost of a virtual instant. So windows end on a beat instead: one entered
// on time is the beat's period long, one entered late is shorter by the
// lateness, never shorter than windowSpan, and the ones after it stay that
// short until the loop is back on the beat. What an instant costs is then
// two beats, whatever the wake-ups cost, for as long as they cost less than
// the beat leaves room for on average.
const windowBeat = windowSpan + graceWindow/2

// maxLag is how far behind its beat a loop may fall and still make all of
// it up (a garbage collection, a stretch in which every P had work); what
// it falls behind beyond that is lost.
const maxLag = 4 * time.Millisecond

// timerWindow is a window on the runtime timer alone. A Go process with
// nothing to run sleeps in epoll_wait, whose timeout is whole milliseconds
// (runtime/netpoll_epoll.go: delay < 1e6 → waitms = 1), so unless some P
// happens to be running this window lasts ≈ 1.1 ms, whatever graceWindow
// says. It is the window where there is no timerfd.
type timerWindow struct {
	t    *time.Timer
	beat time.Time // when the last window armed would have ended on time
}

// arm starts the window and reports how long it is.
func (w *timerWindow) arm() time.Duration {
	now := time.Now()
	soonest := now.Add(windowSpan)
	w.beat = w.beat.Add(windowBeat)
	if w.t == nil {
		w.beat = soonest // the first window starts the beat
	} else if soonest.Sub(w.beat) > maxLag {
		w.beat = soonest.Add(-maxLag)
	}
	d := windowSpan
	if w.beat.After(soonest) {
		d = w.beat.Sub(now)
	}
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d) // drained: the last wait that returned true received from it
	}
	return d
}

// expire waits the armed window out.
func (w *timerWindow) expire(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-w.t.C:
		return true
	}
}

func (w *timerWindow) wait(stop <-chan struct{}) bool {
	w.arm()
	return w.expire(stop)
}

func (w *timerWindow) close() {
	if w.t != nil {
		w.t.Stop()
	}
}
