package nfs

import (
	"errors"
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
