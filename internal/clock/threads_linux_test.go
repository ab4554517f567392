package clock

import (
	"os"
	"strconv"
	"syscall"
	"testing"
	"unsafe"
)

// TestLookOnOneCPU: with every thread of the process on one CPU, the thread
// a look's own Gosched wakes is always queued behind the loop. A look that
// kept that CPU through settleMax would never see the thread run and go
// back to sleep; one that yields after each reading that found a thread
// awake lets it, so on an idle machine nearly every look succeeds.
//
// The loop may not yield while other processes have tasks to run, so only
// looks before which none had (othersRunnable) count, an attempt only if
// at least 3/4 of its looks do, and the best of three attempts must pass.
func TestLookOnOneCPU(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock assertion: not under -race")
	}
	if inFreshProcess(t) {
		return
	}
	w := newThreadWatch()
	if w == nil {
		t.Skip("no /proc schedstat: the loop keeps to the quiet span")
	}
	defer w.close()
	var all, one cpuMask
	if errno := affinity(syscall.Gettid(), &all, syscall.SYS_SCHED_GETAFFINITY); errno != 0 {
		t.Skipf("sched_getaffinity: %v", errno)
	}
	for i, word := range all {
		if word != 0 {
			one[i] = word & -word // the first CPU the process may use
			break
		}
	}
	const looks = 300
	best, counted := 0.0, 0
	for attempt := 0; attempt < 3 && best < 0.95; attempt++ {
		seen, idle := looksOnOneCPU(t, w, &one, &all, looks)
		t.Logf("%d of the %d looks no other task could run before saw every other thread asleep (%d looks)", seen, idle, looks)
		if idle >= looks*3/4 {
			counted++
			best = max(best, float64(seen)/float64(idle))
		}
	}
	switch {
	case counted == 0:
		t.Skip("another task could run before more than a quarter of the looks in every attempt")
	case best < 0.95:
		t.Errorf("at best %.1f %% of the looks saw the idle process asleep, want ≥ 95 %%", best*100)
	}
}

// looksOnOneCPU pins every thread to the CPU in one, makes n looks, gives
// every thread back its mask (all, to a thread started meanwhile), and
// reports before how many looks no other task could run, and how many of
// those succeeded.
func looksOnOneCPU(t *testing.T, w *threadWatch, one, all *cpuMask, n int) (seen, idle int) {
	t.Helper()
	saved := map[int]cpuMask{}
	defer func() {
		for _, tid := range threadIDs() {
			m, ok := saved[tid]
			if !ok {
				m = *all
			}
			affinity(tid, &m, syscall.SYS_SCHED_SETAFFINITY) // ESRCH: it has exited
		}
	}()
	pinThreads(t, one, saved)

	// The runtime's own threads take a while to settle after the test
	// starts: sysmon, for one, polls every 20 µs until it has found nothing
	// to do 50 times.
	for i := 0; i < 50; i++ {
		w.asleep()
	}
	for i := 0; i < n; i++ {
		if othersRunnable(w) {
			w.asleep()
			continue
		}
		idle++
		if w.asleep() {
			seen++
		}
	}
	return seen, idle
}

// cpuMask is sched_setaffinity(2)'s cpu_set_t: 1024 CPUs.
type cpuMask [16]uint64

func affinity(tid int, m *cpuMask, call uintptr) syscall.Errno {
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno
}

// pinThreads gives every thread of the process the mask one, recording its
// own in saved first, and lists the threads again until a pass finds none
// left to move, since a thread not yet moved may start another. It skips
// the test where the kernel refuses the call.
func pinThreads(t *testing.T, one *cpuMask, saved map[int]cpuMask) {
	t.Helper()
	for moved := true; moved; {
		moved = false
		for _, tid := range threadIDs() {
			if _, ok := saved[tid]; ok {
				continue
			}
			var m cpuMask
			if affinity(tid, &m, syscall.SYS_SCHED_GETAFFINITY) != 0 {
				continue // it has exited
			}
			saved[tid] = m
			switch errno := affinity(tid, one, syscall.SYS_SCHED_SETAFFINITY); errno {
			case 0:
				moved = true
			case syscall.ESRCH:
			default:
				t.Skipf("sched_setaffinity: %v", errno)
			}
		}
	}
	if len(saved) == 0 {
		t.Skip("no /proc/self/task")
	}
}

// threadIDs lists /proc/self/task, or nothing where there is none.
func threadIDs() []int {
	entries, _ := os.ReadDir("/proc/self/task")
	var tids []int
	for _, e := range entries {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids
}
