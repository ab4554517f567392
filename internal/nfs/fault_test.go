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
