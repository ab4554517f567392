package store

import (
	"testing"
	"time"
)

// TestWaitAppliedExternal: the channel closes when the external floor
// reaches the awaited revision — via ApplyAt (a write) or AdvanceFloor
// (a read-only applied index) — and is pre-closed when already there.
func TestWaitAppliedExternal(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
	defer e.Close()

	if _, err := e.ApplyAt(nil, 1, []Op{{Kind: OpPut, Key: "a", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	pre, _ := e.WaitApplied(1)
	select {
	case <-pre:
	default:
		t.Fatal("WaitApplied(1) not pre-closed at floor 1")
	}

	ch3, _ := e.WaitApplied(3)
	select {
	case <-ch3:
		t.Fatal("WaitApplied(3) closed at floor 1")
	default:
	}
	if _, err := e.ApplyAt(nil, 2, []Op{{Kind: OpPut, Key: "b", Value: "2"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch3:
		t.Fatal("WaitApplied(3) closed at floor 2")
	default:
	}
	// A revision that carries no write still advances the floor.
	if err := e.AdvanceFloor(3); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch3:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied(3) never closed after AdvanceFloor(3)")
	}
}

// TestWaitAppliedImport: restoring a snapshot image raises the floor to
// at least the snapshot index, releasing waiters whose target the image
// covers — even when the image's highest key revision is older (the
// trailing log entries were deletes or reads).
func TestWaitAppliedImport(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
	defer e.Close()
	ch, _ := e.WaitApplied(10)
	if err := e.Import([]KVOf[any]{{Key: "a", Value: "x", Rev: 4}}, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied(10) never closed after Import with floorAtLeast 10")
	}
	if got := e.Snapshot(); got != 10 {
		t.Fatalf("floor after import = %d, want 10", got)
	}
}

// TestWaitAppliedInternal: the internal-mode floor, raised by each
// commit, drives the same channel.
func TestWaitAppliedInternal(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	rev, err := e.Put("k", "v")
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := e.WaitApplied(rev + 1)
	select {
	case <-ch:
		t.Fatalf("WaitApplied(%d) closed at floor %d", rev+1, rev)
	default:
	}
	if _, err := e.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("internal-mode WaitApplied never closed")
	}
}

// TestWaitAppliedCancel: a deregistered waiter leaves the list (no
// accumulation on a lagging replica) and a later floor advance neither
// closes its channel nor panics on a double cancel.
func TestWaitAppliedCancel(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
	defer e.Close()
	abandoned, cancel := e.WaitApplied(5)
	kept, _ := e.WaitApplied(5)
	cancel()
	cancel() // idempotent
	if err := e.AdvanceFloor(5); err != nil {
		t.Fatal(err)
	}
	select {
	case <-kept:
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter never released")
	}
	select {
	case <-abandoned:
		t.Fatal("cancelled waiter's channel closed")
	default:
	}
}

// TestGetAt: point reads at a revision see the version chain's state at
// that cut, including tombstones.
func TestGetAt(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
	defer e.Close()
	mut := func(rev uint64, ops ...Op) {
		t.Helper()
		if _, err := e.ApplyAt(nil, rev, ops); err != nil {
			t.Fatal(err)
		}
	}
	mut(1, Op{Kind: OpPut, Key: "k", Value: "v1"})
	mut(2, Op{Kind: OpPut, Key: "k", Value: "v2"})
	mut(3, Op{Kind: OpDelete, Key: "k"})
	mut(4, Op{Kind: OpPut, Key: "k", Value: "v4"})

	for _, tc := range []struct {
		rev    uint64
		want   string
		exists bool
	}{
		{1, "v1", true}, {2, "v2", true}, {3, "", false}, {4, "v4", true},
	} {
		v, _, ok := e.GetAt("k", tc.rev)
		if ok != tc.exists || (ok && v.(string) != tc.want) {
			t.Fatalf("GetAt(k,%d) = (%v,%v), want (%q,%v)", tc.rev, v, ok, tc.want, tc.exists)
		}
	}
	if _, _, ok := e.GetAt("absent", 4); ok {
		t.Fatal("GetAt(absent) hit, want miss")
	}
}
