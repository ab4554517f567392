package nfs

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestFaultErrorModeDropsWritesAndFailsReads(t *testing.T) {
	s := newTestServer(t)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	v.Write("pre.txt", []byte("survives"))

	s.InjectFault(FaultError)
	if got := s.FaultMode(); got != FaultError {
		t.Fatalf("FaultMode = %v", got)
	}
	v.Write("dropped.txt", []byte("lost"))
	v.Append("pre.txt", []byte(" lost-too"))
	if _, err := v.Read("pre.txt"); !errors.Is(err, ErrFaulted) {
		t.Fatalf("Read during fault: err = %v, want ErrFaulted", err)
	}

	s.Heal()
	if v.Exists("dropped.txt") {
		t.Fatal("write during FaultError was not dropped")
	}
	data, err := v.Read("pre.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "survives" {
		t.Fatalf("pre.txt = %q, want append dropped", data)
	}
}

func TestFaultStallBlocksUntilHeal(t *testing.T) {
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}

	s.InjectFault(FaultStall)
	start := clk.Now()
	done := make(chan []byte, 1)
	go func() {
		v.Write("stalled.txt", []byte("eventually"))
		data, _ := v.Read("stalled.txt")
		done <- data
	}()

	// Heal after one virtual minute; the stalled write completes only
	// then — hard-mount semantics: paused, never lost.
	clk.AfterFunc(time.Minute, s.Heal)
	select {
	case data := <-done:
		if string(data) != "eventually" {
			t.Fatalf("stalled write produced %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled operation never completed after heal")
	}
	if waited := clk.Since(start); waited < time.Minute {
		t.Fatalf("stalled write completed after %v, want >= 1m", waited)
	}

	// Attribute calls are served from the attribute cache and do not
	// stall (the controller can keep polling Stat/Exists during a flap).
	s.InjectFault(FaultStall)
	if !v.Exists("stalled.txt") {
		t.Fatal("Exists should not stall or fail during a flap")
	}
	s.Heal()
}

// nowCounter is a manual clock that counts readings of the time, which
// is how the test knows a stalled caller has taken its start time (it
// parks nothing on the clock that could be waited for instead).
type nowCounter struct {
	*clock.Sim
	reads atomic.Int64
}

func (c *nowCounter) Now() time.Time {
	defer c.reads.Add(1)
	return c.Sim.Now()
}

// TestStalledCallersCostNoClockEvents: operations blocked by a stall wait
// for the heal without polling — nothing is parked on the clock however
// long the flap — and still resume where the 50 ms poll resumed them: on
// the first tick of their own cadence after the heal.
func TestStalledCallersCostNoClockEvents(t *testing.T) {
	clk := &nowCounter{Sim: clock.NewManual()}
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(FaultStall)

	const callers = 5
	const heal = 10 * time.Second
	type finish struct {
		caller int
		at     time.Duration
	}
	epoch := clk.Sim.Now()
	done := make(chan finish, callers)
	var called [callers]time.Duration
	for j := 0; j < callers; j++ {
		// 7 ms apart: off the 50 ms grid and off each other's, so every
		// caller has its own cadence and none ticks exactly at the heal.
		clk.Advance(7 * time.Millisecond)
		called[j] = clk.Sim.Now().Sub(epoch)
		reads := clk.reads.Load()
		go func(j int) {
			v.Write(fmt.Sprintf("f%d", j), []byte("x"))
			done <- finish{j, clk.Sim.Now().Sub(epoch)}
		}(j)
		for timeout := time.After(5 * time.Second); clk.reads.Load() == reads; runtime.Gosched() {
			select {
			case <-timeout:
				t.Fatalf("caller %d never reached the stall", j)
			default:
			}
		}
	}
	clk.Advance(heal - clk.Sim.Now().Sub(epoch))
	if n := clk.PendingEvents(); n != 0 {
		t.Fatalf("%d clock events parked by %d callers stalled for %v, want 0", n, callers, heal)
	}
	select {
	case f := <-done:
		t.Fatalf("caller %d completed during the stall", f.caller)
	default:
	}
	s.Heal()
	waitParked(t, clk.Sim, callers)

	// What the poll did: re-check every faultPollGrain from the call, so
	// resume on the first re-check after the heal, then pay the write's
	// round trip.
	for j := 0; j < callers; j++ {
		resume := called[j] + ((heal-called[j])/faultPollGrain+1)*faultPollGrain
		clk.Advance(resume - clk.Sim.Now().Sub(epoch))
		waitParked(t, clk.Sim, callers-j) // the resumed caller is now in its round trip
		want := resume + s.link.Latency
		clk.Advance(want - clk.Sim.Now().Sub(epoch) - 1)
		select {
		case f := <-done:
			t.Fatalf("caller %d completed at %v, before %v", f.caller, f.at, want)
		default:
		}
		clk.Advance(1)
		select {
		case f := <-done:
			if f.caller != j || f.at != want {
				t.Fatalf("caller %d completed at %v, want caller %d at %v", f.caller, f.at, j, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d did not complete at %v", j, want)
		}
	}
}

// waitParked blocks until n events are parked on s.
func waitParked(t *testing.T, s *clock.Sim, n int) {
	t.Helper()
	for timeout := time.After(5 * time.Second); s.PendingEvents() < n; runtime.Gosched() {
		select {
		case <-timeout:
			t.Fatalf("%d events parked, want %d", s.PendingEvents(), n)
		default:
		}
	}
}

// compoundReport is a learner's chunk report: a progress rewrite and a
// metric-point append, in that order.
func compoundReport(v *Volume, images string) {
	v.Compound(Call{Path: "progress", Data: []byte(images)},
		Call{Path: "metrics", Data: []byte(images + "\n"), Append: true})
}

// compoundOn runs a compound report on its own goroutine and returns a
// channel closed when it has landed or been dropped.
func compoundOn(v *Volume, images string) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		compoundReport(v, images)
	}()
	return done
}

// contents reads path without a round trip, which a manual clock nobody
// advances would never finish.
func contents(v *Volume, path string) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return string(v.files[path].data)
}

func returned(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestCompoundLandsInThePaidRoundTrip: on a healthy server a compound's
// calls land at once, with no clock event of their own, in call order
// and one Gen each, signalling every subscriber and counting each call
// by its kind.
func TestCompoundLandsInThePaidRoundTrip(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	progress, metrics := v.Subscribe("progress"), v.Subscribe("metrics")
	start := clk.Now()
	for i, images := range []string{"32", "64"} {
		returned(t, compoundOn(v, images), "a healthy compound")
		if n := clk.PendingEvents(); n != 0 || !clk.Now().Equal(start) {
			t.Fatalf("compound %d parked %d events and moved the clock %v, want none", i, n, clk.Since(start))
		}
		p, _ := v.Stat("progress")
		m, _ := v.Stat("metrics")
		if want := uint64(2*i + 1); p.Gen != want || m.Gen != want+1 {
			t.Fatalf("compound %d: Gens progress %d, metrics %d, want %d and %d", i, p.Gen, m.Gen, want, want+1)
		}
		if !token(progress) || !token(metrics) {
			t.Fatalf("compound %d left a subscriber unsignalled", i)
		}
		counts := s.OpCounts()
		if n := uint64(i + 1); counts["write"] != n || counts["append"] != n || counts["read"] != 0 {
			t.Fatalf("compound %d: OpCounts %v, want %d writes and %d appends", i, counts, n, n)
		}
	}
	if got := contents(v, "progress"); got != "64" {
		t.Fatalf("progress = %q, want the second compound's rewrite", got)
	}
	if got := contents(v, "metrics"); got != "32\n64\n" {
		t.Fatalf("metrics = %q, want both appends in order", got)
	}
}

// TestCompoundDroppedByFaultError: a soft-mount outage drops every call
// of a compound, and none is counted.
func TestCompoundDroppedByFaultError(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	sub := v.Subscribe("progress", "metrics")
	s.InjectFault(FaultError)
	returned(t, compoundOn(v, "32"), "a compound under FaultError")
	if v.Exists("progress") || v.Exists("metrics") || token(sub) {
		t.Fatal("a compound under FaultError changed the volume")
	}
	for op, n := range s.OpCounts() {
		if op != "stat" && n != 0 {
			t.Fatalf("OpCounts[%q] = %d under FaultError, want 0", op, n)
		}
	}
}

// TestCompoundStallsLikeAFreshCall: a compound that meets a hard-mount
// outage waits for the heal with nothing parked on the clock, resumes on
// its own poll cadence's first tick after the heal, and then pays the
// round trip a fresh call would, since the one its caller slept is spent.
func TestCompoundStallsLikeAFreshCall(t *testing.T) {
	clk := &nowCounter{Sim: clock.NewManual()}
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(FaultStall)
	epoch := clk.Sim.Now()
	const called, heal = 7 * time.Millisecond, 10 * time.Second
	clk.Advance(called)
	reads := clk.reads.Load()
	done := compoundOn(v, "32")
	for timeout := time.After(5 * time.Second); clk.reads.Load() == reads; runtime.Gosched() {
		select {
		case <-timeout:
			t.Fatal("the compound never reached the stall")
		default:
		}
	}
	clk.Advance(heal - called)
	if n := clk.PendingEvents(); n != 0 {
		t.Fatalf("%d clock events parked by a stalled compound, want 0", n)
	}
	s.Heal()
	waitParked(t, clk.Sim, 1)
	resume := called + ((heal-called)/faultPollGrain+1)*faultPollGrain
	clk.Advance(resume - clk.Sim.Now().Sub(epoch))
	waitParked(t, clk.Sim, 1) // the resumed compound is in its round trip
	clk.Advance(s.link.Latency - 1)
	if v.Exists("progress") || v.Exists("metrics") {
		t.Fatal("the stalled compound landed before its round trip")
	}
	clk.Advance(1)
	returned(t, done, "the healed compound")
	if p, m := contents(v, "progress"), contents(v, "metrics"); p != "32" || m != "32\n" {
		t.Fatalf("after the heal: progress %q, metrics %q; want both landed", p, m)
	}
}
