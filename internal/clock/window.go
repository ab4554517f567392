package clock

import "time"

// window is the real-time half of the idle-advance loop: what it sleeps on
// until the clock has been quiet for quietSpan, and what may tell it
// sooner that nothing else in the process can run. The loop owns it and
// closes it on exit.
//
// Both implementations wait on a runtime timer, which ties the loop's
// wake-up to a scheduling pass of the P it last ran on, like the wake-up
// of every goroutine it has to outwait. What differs is how punctual the
// timer is when the process is idle, which is what a virtual instant
// costs: see timerfdWindow.
type window interface {
	// wait blocks for d of real time, counted from the call, and reports
	// false if stop has been closed by then.
	wait(d time.Duration, stop <-chan struct{}) bool
	// asleep reports whether nothing else in the process was seen able to
	// run: the loop may then end the instant before the quiet span is up.
	// A window that cannot tell answers false.
	asleep() bool
	close()
}

// timerWindow is a window on the runtime timer alone. A Go process with
// nothing to run sleeps in epoll_wait, whose timeout is whole milliseconds
// (runtime/netpoll_epoll.go: delay < 1e6 → waitms = 1), so unless some P
// happens to be running this window lasts ≈ 1 ms more than it was asked
// to. It is the window where there is no timerfd, and it never sees the
// process asleep: the quiet span ends every instant.
//
// A window is a time.Sleep, which parks the loop on its goroutine's own
// timer: a select on a timer's channel would take a sudog from the P's
// cache each time, and the runtime empties the shared cache behind those at
// every collection, so a loop that waits several times an instant
// allocated there. Close is noticed when the window ends.
type timerWindow struct{}

func (timerWindow) wait(d time.Duration, stop <-chan struct{}) bool {
	time.Sleep(d)
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

func (timerWindow) asleep() bool { return false }

func (timerWindow) close() {}
