package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdWindow is timerWindow made punctual. Beside the runtime timer it
// arms a timerfd that the netpoller watches and nobody reads: when the
// window is over the kernel's hrtimer makes the descriptor readable, an
// idle process's epoll_wait returns then and not at its next whole
// millisecond, and the scheduler it returns into finds the runtime timer
// due. When some P is busy the runtime timer fires on time by itself and
// the descriptor's event finds no one waiting.
//
// The loop does not wait on the descriptor itself, although a Read parked
// in the netpoller is as punctual. When every P is busy nobody polls the
// network but sysmon, every 10 ms, and what it finds ready goes to the
// global run queue with the goroutines the scheduler has just preempted:
// the loop's wake-ups then come at sysmon's pace, not at the pace at which
// the goroutines it woke get a CPU, and it overtakes them
// (TestMakespanHoldsBesideCPUHogs in internal/etcd: virtual makespan
// × 13.8 with Read, × 1.0 on the runtime timer with or without the
// descriptor). Sleeping in a syscall — nanosleep — is punctual too, but
// holds a P for the whole window, and the goroutines that P should have
// run look silent.
//
// It also owns the loop's look at the process's threads (threadWatch),
// which can end an instant before the quiet span is up.
type timerfdWindow struct {
	timerWindow
	f  *os.File // keeps the descriptor registered with the netpoller
	fd uintptr  // f's descriptor; f.Fd() could put it in blocking mode
	// oneShot arms the descriptor for the length of one window. Its
	// interval stays zero: every window is as long as what is left of the
	// quiet span when the loop looks, and a periodic descriptor would keep
	// waking an idle process between windows.
	oneShot itimerspec
	threads *threadWatch // nil without /proc: the quiet span ends every instant
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1 // CLOCK_MONOTONIC

// newWindow returns a timerfd window, or the runtime-timer one when the
// process cannot have the descriptor (EMFILE, a seccomp profile) or the
// netpoller will not take it.
func newWindow() window {
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as the O_ flags.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return timerWindow{}
	}
	f := os.NewFile(fd, "timerfd")
	// A descriptor the netpoller did not register answers ErrNoDeadline.
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return timerWindow{}
	}
	return &timerfdWindow{f: f, fd: fd, threads: newThreadWatch()}
}

func (w *timerfdWindow) wait(d time.Duration, stop <-chan struct{}) bool {
	// The descriptor must not turn readable before the runtime timer is
	// due, or the scheduler it wakes goes back to sleep for a millisecond;
	// it is armed before the Sleep that arms the timer, so it is armed for
	// a little longer. The call is raw for the reason threadWatch.read's
	// is. Should arming it fail, the window is still a whole one, only not
	// a punctual one.
	w.oneShot.value = syscall.NsecToTimespec(int64(d + timerfdSlack))
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&w.oneShot)), 0, 0, 0)
	return w.timerWindow.wait(d, stop)
}

// timerfdSlack covers the time from arming the descriptor to the Sleep
// reading the clock: a system call's return and a function call.
const timerfdSlack = 2 * time.Microsecond

func (w *timerfdWindow) asleep() bool { return w.threads != nil && w.threads.asleep() }

func (w *timerfdWindow) close() {
	w.f.Close()
	if w.threads != nil {
		w.threads.close()
	}
}
