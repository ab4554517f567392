package clock

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// threadWatch is how the idle-advance loop sees, from /proc, that nothing
// else in the process can run: every other thread is asleep and stays
// asleep while the loop's own thread spins.
//
// Why a look at the threads is a look at the goroutines: the Go scheduler
// keeps a thread awake (spinning, or running what it found) while a
// goroutine is runnable and a P is idle. ready() wakes one before it
// returns, and the last spinning thread looks at every run queue once more
// before it sleeps. So while no other thread runs, nothing is runnable but
// what waits on the loop's own P, whose thread is busy with the loop;
// yielding first lets that queue run. A goroutine asleep in a syscall or on
// a runtime timer leaves its thread asleep too: like the quiet span, this
// check does not wait for what waits on the wall clock.
//
// Gosched itself wakes a thread (wakep), which the kernel may queue behind
// the loop on the loop's CPU: that thread finds nothing and sleeps again
// only once it runs. So after a reading that finds a thread awake the loop
// yields its CPU, unless other processes have more tasks to run than there
// are other CPUs: one of them could then wait on the loop's CPU, and a
// yield to it loses the CPU for its whole time slice.
type threadWatch struct {
	self    int    // /proc/self/stat, read for num_threads
	loadavg int    // /proc/loadavg, read for the machine's runnable tasks
	tasks   []task // every thread of the process, listed again when the count changes
	stale   bool   // a thread's files no longer read: list again
	buf     [1024]byte
}

// task is one thread's stat and schedstat under /proc/self/task/<tid>,
// opened once and re-read from offset 0.
type task struct {
	tid         int
	stat, sched int
	schedstat   [64]byte // the line the last look read
	schedLen    int
}

const (
	// settleSpin separates the two looks that must agree. The loop's
	// thread spins through it rather than sleeping, so that its own
	// wake-up wakes no other thread.
	settleSpin = 20 * time.Microsecond
	// settleMax bounds one check: threads that are still busy after it
	// (or that never stop waking) leave the instant to the quiet span. A
	// look reads two files a thread (≈ 0.5 µs each), so a check lasts
	// settleMax and one look more; the benchmark's workloads and the chaos
	// campaign run on at most 5 threads at 2 CPUs.
	settleMax = 60 * time.Microsecond
)

// newThreadWatch opens /proc/self/stat. It returns nil where there is no
// /proc, or no schedstat that counts a thread's runs (a kernel without
// CONFIG_SCHED_INFO prints zeros), and the loop keeps to the quiet span.
func newThreadWatch() *threadWatch {
	self, err := openProc("/proc/self/stat")
	if err != nil {
		return nil
	}
	w := &threadWatch{self: self}
	w.loadavg, _ = openProc("/proc/loadavg")
	sched, err := openProc("/proc/thread-self/schedstat")
	if err != nil {
		w.close()
		return nil
	}
	runs, ok := field(w.read(sched), 2) // this thread has run: ≥ 1
	syscall.Close(sched)
	if !ok || runs == 0 || w.threads() < 1 {
		w.close()
		return nil
	}
	return w
}

func openProc(path string) (int, error) {
	return syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
}

// asleep yields, then looks at every other thread until two looks
// settleSpin apart each find all of them asleep ('S') with their schedstat
// lines unchanged, or settleMax has passed. It reports true only then,
// and only if neither the number of threads nor the loop's own thread
// changed. After a reading that finds n threads awake it reads again at
// once, yielding first if /proc/loadavg counts at most n + NumCPU runnable
// tasks: the loop's thread, those n, and one for each other CPU.
//
// Gosched puts the loop on the global run queue, and its P serves the
// local queue first — except once in 61 schedules, when fairness takes the
// global queue first. The second Gosched comes right after any such pick,
// so it is not one.
func (w *threadWatch) asleep() bool {
	runtime.Gosched()
	runtime.Gosched()
	me := syscall.Gettid()
	n := w.threads()
	if (n != len(w.tasks) || w.stale) && !w.relist(n) {
		return false
	}
	was, _ := w.look(me)
	for start := time.Now(); ; {
		if was == 0 {
			for spun := time.Now(); time.Since(spun) < settleSpin; {
			}
		} else if running, ok := field(w.read(w.loadavg), 3); ok && was > 0 && running <= uint64(was+runtime.NumCPU()) {
			syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // raw for the reason read is
		}
		awake, same := w.look(me)
		if was == 0 && awake == 0 && same {
			return w.threads() == n && syscall.Gettid() == me
		}
		if time.Since(start) > settleMax {
			return false
		}
		was = awake
	}
}

// look reads every other thread's schedstat line (time on a CPU, time
// waiting for one, times scheduled in) and state, records the lines, and
// reports how many threads were awake (-1: one has exited) and whether
// every line was what the look before recorded. A thread asleep at two
// looks with its line unchanged did not run between them: one scheduled in
// counts a run, and one caught on its way to sleep ('S' while still on its
// CPU) but woken before it left adds its time on the CPU when it does leave.
func (w *threadWatch) look(me int) (awake int, same bool) {
	same = true
	for i := range w.tasks {
		t := &w.tasks[i]
		if t.tid == me {
			continue
		}
		line := w.read(t.sched)
		if len(line) == 0 {
			w.stale = true // the thread has exited
			return -1, false
		}
		if !bytes.Equal(line, t.schedstat[:t.schedLen]) {
			same = false
			t.schedLen = copy(t.schedstat[:], line)
		}
		if f := statFields(w.read(t.stat)); len(f) == 0 || f[0] != 'S' {
			awake++
		}
	}
	return awake, same
}

// read re-reads a /proc file from offset 0 into w.buf. The call is raw:
// syscall.Pread enters the scheduler's syscall state, which wakes the
// runtime's sysmon thread when every other P is idle.
func (w *threadWatch) read(fd int) []byte {
	n, _, errno := syscall.RawSyscall6(syscall.SYS_PREAD64, uintptr(fd), uintptr(unsafe.Pointer(&w.buf[0])), uintptr(len(w.buf)), 0, 0, 0)
	if errno != 0 || n == 0 {
		return nil
	}
	return w.buf[:n]
}

// statFields returns a stat line's fields after "(comm)", state first.
// comm may itself hold spaces and parentheses, so the last ')' ends it.
func statFields(b []byte) []byte {
	if i := bytes.LastIndexByte(b, ')'); i >= 0 && i+2 < len(b) {
		return b[i+2:]
	}
	return nil
}

// threads reads num_threads, field 20 of /proc/self/stat (the 18th after
// comm), or -1.
func (w *threadWatch) threads() int {
	n, ok := field(statFields(w.read(w.self)), 17)
	if !ok {
		return -1
	}
	return int(n)
}

// field parses the i-th space-separated decimal field of b.
func field(b []byte, i int) (uint64, bool) {
	for ; i > 0; i-- {
		sp := bytes.IndexByte(b, ' ')
		if sp < 0 {
			return 0, false
		}
		b = b[sp+1:]
	}
	var n uint64
	digits := 0
	for ; digits < len(b) && '0' <= b[digits] && b[digits] <= '9'; digits++ {
		n = n*10 + uint64(b[digits]-'0')
	}
	return n, digits > 0
}

// relist opens every thread's stat and schedstat afresh, and reports
// whether it found the n threads the process says it has. It allocates,
// but only when a thread comes or goes.
func (w *threadWatch) relist(n int) bool {
	w.closeTasks()
	w.stale = false
	entries, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	for _, e := range entries {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		dir := "/proc/self/task/" + e.Name()
		stat, err := openProc(dir + "/stat")
		if err != nil {
			continue // the thread has exited
		}
		sched, err := openProc(dir + "/schedstat")
		if err != nil {
			syscall.Close(stat)
			continue
		}
		w.tasks = append(w.tasks, task{tid: tid, stat: stat, sched: sched})
	}
	return len(w.tasks) == n
}

func (w *threadWatch) closeTasks() {
	for _, t := range w.tasks {
		syscall.Close(t.stat)
		syscall.Close(t.sched)
	}
	w.tasks = w.tasks[:0]
}

func (w *threadWatch) close() {
	w.closeTasks()
	syscall.Close(w.self)
	syscall.Close(w.loadavg)
}
