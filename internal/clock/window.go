package clock

import "time"

// window is the real-time half of the idle-advance loop: what it sleeps on
// until the clock has been quiet for quietSpan. The loop owns it and
// closes it on exit.
//
// Both implementations wait on a runtime timer, which ties the loop's
// wake-up to a scheduling pass of the P it last ran on, like the wake-up
// of every goroutine it has to outwait. What differs is how punctual the
// timer is when the process is idle, which is what a virtual instant
// costs: see timerfdWindow.
type window interface {
	// wait blocks for d of real time, counted from the call, or until stop
	// is closed, which it reports with false.
	wait(d time.Duration, stop <-chan struct{}) bool
	close()
}

// timerWindow is a window on the runtime timer alone. A Go process with
// nothing to run sleeps in epoll_wait, whose timeout is whole milliseconds
// (runtime/netpoll_epoll.go: delay < 1e6 → waitms = 1), so unless some P
// happens to be running this window lasts ≈ 1 ms more than it was asked
// to. It is the window where there is no timerfd.
type timerWindow struct {
	t *time.Timer
}

// arm starts a window of d.
func (w *timerWindow) arm(d time.Duration) {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d) // drained: the last wait that returned true received from it
	}
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

func (w *timerWindow) wait(d time.Duration, stop <-chan struct{}) bool {
	w.arm(d)
	return w.expire(stop)
}

func (w *timerWindow) close() {
	if w.t != nil {
		w.t.Stop()
	}
}
