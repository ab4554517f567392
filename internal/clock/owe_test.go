package clock

import (
	"context"
	"testing"
	"time"
)

// sleepLog is a clock that records its sleeps instead of taking them.
type sleepLog struct {
	Real
	slept []time.Duration
}

func (s *sleepLog) Sleep(d time.Duration) { s.slept = append(s.slept, d) }

// TestSettlePaysTheDebtInOneSleep: Settle sleeps its own latency and the
// context's debt together, once, and a second Settle pays only its own.
func TestSettlePaysTheDebtInOneSleep(t *testing.T) {
	clk := &sleepLog{}
	ctx := Owe(context.Background(), time.Millisecond)
	if got := Owed(ctx); got != time.Millisecond {
		t.Fatalf("Owed = %v, want 1ms", got)
	}
	Settle(ctx, clk, 500*time.Microsecond)
	Settle(ctx, clk, 500*time.Microsecond)
	want := []time.Duration{1500 * time.Microsecond, 500 * time.Microsecond}
	if len(clk.slept) != 2 || clk.slept[0] != want[0] || clk.slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", clk.slept, want)
	}
	if got := Owed(ctx); got != 0 {
		t.Fatalf("Owed after Settle = %v, want 0", got)
	}
	if got := Owed(context.Background()); got != 0 {
		t.Fatalf("a plain context owes %v", got)
	}
}

// TestOweMovesTheOuterDebt: owing on a context that already owes moves
// the outer debt onto the new context, so one Settle pays both and the
// outer context owes nothing afterwards.
func TestOweMovesTheOuterDebt(t *testing.T) {
	clk := &sleepLog{}
	type key struct{}
	outer := Owe(context.WithValue(context.Background(), key{}, "v"), 2*time.Millisecond)
	inner := Owe(outer, time.Millisecond)
	if got := Owed(outer); got != 0 {
		t.Fatalf("outer context still owes %v", got)
	}
	if got := inner.Value(key{}); got != "v" {
		t.Fatalf("inner context lost its parent's value: %v", got)
	}
	Settle(inner, clk, 0)
	if len(clk.slept) != 1 || clk.slept[0] != 3*time.Millisecond {
		t.Fatalf("slept %v, want one sleep of 3ms", clk.slept)
	}
}

// TestOweAllocatesOnce: an owing context is one object, and settling it
// allocates nothing.
func TestOweAllocatesOnce(t *testing.T) {
	clk := &sleepLog{slept: make([]time.Duration, 0, 256)}
	bg := context.Background()
	if got := testing.AllocsPerRun(100, func() {
		Settle(Owe(bg, time.Millisecond), clk, time.Millisecond)
		clk.slept = clk.slept[:0]
	}); got != 1 {
		t.Fatalf("Owe + Settle allocated %v objects, want 1", got)
	}
}
