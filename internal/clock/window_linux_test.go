package clock

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// timerfdWindowForTest returns the timerfd window, skipping where wall-clock
// assertions say nothing (-race) or the process cannot have a timerfd.
func timerfdWindowForTest(t *testing.T) *timerfdWindow {
	t.Helper()
	if raceEnabled {
		t.Skip("wall-clock assertion: not under -race")
	}
	w, ok := newWindow().(*timerfdWindow)
	if !ok {
		t.Skip("no timerfd in this process: the loop runs on the runtime timer")
	}
	t.Cleanup(w.close)
	return w
}

// A window lasts what it was asked to, not the millisecond an idle Go
// process rounds a runtime timer up to (≈ 1.1 ms measured).
func TestWindowDuration(t *testing.T) {
	w := timerfdWindowForTest(t)
	stop := make(chan struct{})
	walls := make([]time.Duration, 200)
	for i := range walls {
		start := time.Now()
		w.wait(quietSpan, stop)
		walls[i] = time.Since(start)
	}
	slices.Sort(walls)
	if walls[0] < quietSpan {
		t.Errorf("shortest window %v, want ≥ %v", walls[0], quietSpan)
	}
	median := walls[len(walls)/2]
	t.Logf("window of %v: min %v, median %v, p90 %v", quietSpan, walls[0], median, walls[len(walls)*9/10])
	if limit := quietSpan + 100*time.Microsecond; median > limit {
		t.Errorf("median window %v, want ≤ %v", median, limit)
	}
}

// TestTouchesHoldTheClock: a goroutine that touches the clock more often
// than the quiet span holds it for as long as it keeps that up, and once it
// stops the clock jumps at least one check window and at most the quiet
// span and a millisecond after its last touch.
func TestTouchesHoldTheClock(t *testing.T) {
	timerfdWindowForTest(t)
	var best time.Duration
	for attempt := 0; attempt < 3 && (best == 0 || best > quietSpan+time.Millisecond); attempt++ {
		after, held, steady := holdTheClock(t)
		switch {
		case !held && steady:
			t.Fatalf("attempt %d: the clock jumped while it was touched every 150–250 µs", attempt)
		case !held:
			t.Logf("attempt %d: the toucher was off the CPU for longer than the quiet span, and overtaken", attempt)
		case best == 0 || after < best:
			best = after
		}
	}
	if best == 0 {
		t.Skip("the toucher was off the CPU for longer than the quiet span in every attempt")
	}
	t.Logf("the Sleep fired %v after the last touch (quiet span %v)", best, quietSpan)
	if best > quietSpan+time.Millisecond {
		t.Errorf("the Sleep fired %v after the last touch, want ≤ %v", best, quietSpan+time.Millisecond)
	}
}

// holdTheClock re-arms a far timer every 150–250 µs of wall for 20 ms
// while a Sleep(time.Hour) is pending, then stops. held: the Sleep had not
// fired when it stopped; after: how long after the last touch it then did;
// steady: no two touches were a quiet span or more apart, so the clock had
// no right to jump.
func holdTheClock(t *testing.T) (after time.Duration, held, steady bool) {
	t.Helper()
	s := NewSim()
	defer s.Close()
	far := s.NewTimer(1000 * time.Hour)
	fired := make(chan time.Time, 1)
	go func() {
		s.Sleep(time.Hour)
		fired <- time.Now()
	}()
	// Hold once the Sleep is armed, so that a jump can only be to it. A
	// clock that jumped to the far timer first was not held at all.
	for s.PendingEvents() < 2 {
		if s.Since(simEpoch) != 0 {
			return 0, false, false
		}
		runtime.Gosched()
	}

	steady = true
	gaps := [...]time.Duration{150 * time.Microsecond, 200 * time.Microsecond, 250 * time.Microsecond}
	last := time.Now()
	for end, i := last.Add(20*time.Millisecond), 0; last.Before(end); i++ {
		now := time.Now()
		if now.Sub(last) >= quietSpan {
			steady = false
		}
		last = now // before the touch: the clock's stamp is no earlier
		far.Reset(1000 * time.Hour)
		for time.Since(now) < gaps[i%len(gaps)] {
		}
	}
	select {
	case <-fired:
		return 0, false, steady
	default:
	}
	if n := s.PendingEvents(); n != 2 || s.Since(simEpoch) != 0 {
		t.Fatalf("after the hold: %d events pending, %v of virtual time passed; want the Sleep and the far timer, none", n, s.Since(simEpoch))
	}
	select {
	case at := <-fired:
		after = at.Sub(last)
	case <-time.After(5 * time.Second):
		t.Fatal("the Sleep did not fire within 5 s of the last touch")
	}
	if after < checkAfter {
		t.Fatalf("the Sleep fired %v after the last touch, want ≥ one check window (%v)", after, checkAfter)
	}
	return after, true, steady
}

// TestInstantWallCost: a virtual instant costs one check window, a look at
// the threads and the wake-ups around them when nothing else in the process
// can run (≈ 0.12–0.16 ms). At two or more Ps the look's own Gosched wakes a
// thread, which the look yields its CPU to, so there too the median instant
// must take under 250 µs on a machine with nothing else to run. Where other
// processes keep CPUs busy the look may not yield, since one of them could
// keep the CPU for a time slice, and an instant the look cannot end ends
// with the quiet span, ≈ 0.32 ms, which is what every
// instant cost before (0.6 ms when that was two windows on a 300 µs beat,
// 2.3 ms when a window was a runtime timer): the median must then take
// under 450 µs. At one P, where nothing but the loop is woken, the fastest
// tenth must take under 200 µs however busy the machine.
func TestInstantWallCost(t *testing.T) {
	timerfdWindowForTest(t)
	if inFreshProcess(t) {
		return
	}
	limit := 250 * time.Microsecond
	_, median, busy := instantWallCost(t)
	if busy {
		t.Logf("another task was runnable: the look may not have yielded")
		limit = 450 * time.Microsecond
	}
	if median >= limit {
		t.Errorf("median instant %v of wall, want < %v", median, limit)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if p10, _, _ := instantWallCost(t); p10 >= 200*time.Microsecond {
		t.Errorf("at one P, p10 instant %v of wall, want < 200µs", p10)
	}
}

// instantWallCost times 500 virtual instants of an otherwise idle Sim. busy:
// before at least a quarter of them another task could run
// (othersRunnable), or there is no /proc to tell.
func instantWallCost(t *testing.T) (p10, median time.Duration, busy bool) {
	t.Helper()
	s := NewSim()
	defer s.Close()
	w := newThreadWatch()
	if w != nil {
		defer w.close()
	}
	walls := make([]time.Duration, 500)
	others := 0
	for i := range walls {
		if w == nil || othersRunnable(w) {
			others++
		}
		start := time.Now()
		s.Sleep(time.Second)
		walls[i] = time.Since(start)
	}
	if got := s.Instants(); got != uint64(len(walls)) {
		t.Fatalf("%d instants for %d sleeps", got, len(walls))
	}
	slices.Sort(walls)
	p10, median = walls[len(walls)/10], walls[len(walls)/2]
	t.Logf("%d P: instant min %v, p10 %v, median %v, p90 %v; another task runnable before %d",
		runtime.GOMAXPROCS(0), walls[0], p10, median, walls[len(walls)*9/10], others)
	return p10, median, others >= len(walls)/4
}

const freshProcessEnv = "CLOCK_TEST_FRESH_PROCESS"

// inFreshProcess runs the calling test alone in a child process, at this
// process's GOMAXPROCS, and reports true, unless this is that child. A look
// reads every thread, and a test process that has run other tests has many
// (the runtime keeps the threads it starts): by the four-P round of CI's
// clock line, 13, and instants of 175–270 µs.
func inFreshProcess(t *testing.T) bool {
	t.Helper()
	if os.Getenv(freshProcessEnv) != "" {
		return false
	}
	child := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v", "-test.cpu="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	child.Env = append(os.Environ(), freshProcessEnv+"=1")
	out, err := child.CombinedOutput()
	switch {
	case err != nil:
		t.Errorf("child process: %v\n%s", err, out)
	case bytes.Contains(out, []byte("--- SKIP")):
		t.Skipf("child process:\n%s", out)
	default:
		t.Logf("child process:\n%s", out)
	}
	return true
}

// othersRunnable reports whether /proc/loadavg counts a runnable task
// beyond the calling thread and the process's threads that w finds awake,
// counted as the look's yield counts them, or w cannot tell.
func othersRunnable(w *threadWatch) bool {
	if n := w.threads(); (n != len(w.tasks) || w.stale) && !w.relist(n) {
		return true
	}
	awake, _ := w.look(syscall.Gettid())
	running, ok := field(w.read(w.loadavg), 3)
	return !ok || awake < 0 || running > uint64(1+awake)
}

// openFDs lists what /proc/self/fd links to, sorted.
func openFDs(t *testing.T) []string {
	t.Helper()
	const dir = "/proc/self/fd"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skip(err)
	}
	var links []string
	for _, e := range entries {
		// The descriptor ReadDir itself held is gone by now.
		if l, err := os.Readlink(dir + "/" + e.Name()); err == nil {
			links = append(links, l)
		}
	}
	slices.Sort(links)
	return links
}

const listFDsEnv = "CLOCK_TEST_LIST_FDS"

// TestSimDescriptorLifetime: a Sim's timerfd and the /proc files its loop
// reads are released by the time Close returns, and no child process
// inherits one.
func TestSimDescriptorLifetime(t *testing.T) {
	if os.Getenv(listFDsEnv) != "" { // the child below
		fmt.Println(strings.Join(openFDs(t), "\n"))
		return
	}
	before := openFDs(t)
	for i := 0; i < 2000; i++ {
		s := NewSim()
		if i%20 == 0 {
			s.Sleep(time.Second) // an instant: the loop lists the threads
		}
		s.Close()
	}
	after := openFDs(t)
	if len(after) != len(before) {
		t.Errorf("descriptors after 2000 NewSim+Close: %d, before: %d\n%v", len(after), len(before), after)
	}
	for _, l := range after {
		if strings.Contains(l, "/task/") {
			t.Errorf("a thread's /proc file outlived its Sim: %s", l)
		}
	}

	s := NewSim()
	defer s.Close()
	s.Sleep(time.Second)
	mine := strings.Join(openFDs(t), "\n")
	if !strings.Contains(mine, "timerfd") {
		t.Skipf("no timerfd in this process: the loop runs on the runtime timer\n%s", mine)
	}
	if !strings.Contains(mine, "/task/") {
		t.Logf("the loop holds no thread's /proc files (no /proc, or it never looked)\n%s", mine)
	}
	child := exec.Command(os.Args[0], "-test.run=^TestSimDescriptorLifetime$")
	child.Env = append(os.Environ(), listFDsEnv+"=1")
	out, err := child.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "timerfd") || strings.Contains(string(out), "/proc/") {
		t.Errorf("a child process inherited a Sim's descriptors:\n%s", out)
	}
}
