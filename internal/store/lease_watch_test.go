package store

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestWatchWithLeaseReclaimsCursorOnExpiry: a watcher bound to a lease
// is torn down — and its hub cursor reclaimed — when the lease expires
// without a keep-alive, so a dead consumer stops costing the dispatch
// fan-out anything. The clock is a manual one: on an auto-advancing clock
// the lease's expiry is the only event pending, and the Put, delivery and
// keep-alive below touch no clock, so a stall longer than its quiet span
// would let it jump to the expiry first.
func TestWatchWithLeaseReclaimsCursorOnExpiry(t *testing.T) {
	clk := clock.NewManual()
	defer clk.Close()
	e := NewEngine(Config{})
	defer e.Close()

	l, err := e.GrantLease(clk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := e.WatchWithLease("a/", l)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if got := e.WatcherCount(); got != 1 {
		t.Fatalf("watchers = %d, want 1", got)
	}

	// Alive (kept alive), the subscription delivers.
	if _, err := e.Put("a/1", "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Key != "a/1" {
			t.Fatalf("event key = %q", ev.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery while lease alive")
	}
	if err := l.KeepAlive(); err != nil {
		t.Fatal(err)
	}

	// Let the lease lapse: the watcher must be reclaimed.
	clk.Advance(2 * time.Second)
	waitWatchers(t, e, 0)

	// Writes after reclamation are not delivered to the dead channel.
	if _, err := e.Put("a/2", "y"); err != nil {
		t.Fatal(err)
	}
	drainDeadline := time.After(100 * time.Millisecond)
drain:
	for {
		select {
		case ev := <-ch:
			if ev.Key == "a/2" {
				t.Fatal("event delivered after lease-driven reclamation")
			}
		case <-drainDeadline:
			break drain
		}
	}
}

// TestWatchWithLeaseRevoke: explicit revocation reclaims the cursor the
// same way expiry does, and the returned cancel stays safe to call.
func TestWatchWithLeaseRevoke(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	e := NewEngine(Config{})
	defer e.Close()

	l, err := e.GrantLease(clk, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_, cancel, err := e.WatchWithLease("b/", l)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.WatcherCount(); got != 1 {
		t.Fatalf("watchers = %d, want 1", got)
	}
	l.Revoke()
	waitWatchers(t, e, 0)
	cancel() // idempotent after reclamation
}

// TestWatchWithLeaseExpiredLease: binding to an already-expired lease
// fails with ErrLeaseExpired instead of handing back a born-dead
// channel, and leaks no watcher.
func TestWatchWithLeaseExpiredLease(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	e := NewEngine(Config{})
	defer e.Close()

	l, err := e.GrantLease(clk, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	l.Revoke()
	if _, _, err := e.WatchWithLease("c/", l); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("err = %v, want ErrLeaseExpired", err)
	}
	waitWatchers(t, e, 0)
}

// TestLeaseKeepAliveBeatsInFlightExpiry: when the expiry timer fires at
// the same virtual instant as a keep-alive but acquires the lease lock
// second, it must observe the renewed deadline and yield — the keys and
// watchers of a successfully renewed lease survive. The losing timer
// goroutine is simulated by calling the non-forced expiry directly
// (from outside, the interleaving cannot be pinned down).
func TestLeaseKeepAliveBeatsInFlightExpiry(t *testing.T) {
	clk := clock.NewManual()
	defer clk.Close()
	e := NewEngine(Config{})
	defer e.Close()

	l, err := e.GrantLease(clk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Put("k/1", "v"); err != nil {
		t.Fatal(err)
	}
	if err := l.KeepAlive(); err != nil {
		t.Fatal(err)
	}
	// The stale timer goroutine arrives after the renewal: it yields.
	l.expire(false)
	if l.Expired() {
		t.Fatal("lease expired despite a successful keep-alive")
	}
	if _, _, found := e.Get("k/1"); !found {
		t.Fatal("lease key deleted despite a successful keep-alive")
	}
	// Revocation (and a genuinely lapsed deadline) still expires.
	clk.Advance(time.Second)
	l.expire(false)
	if !l.Expired() {
		t.Fatal("lease did not expire after the renewed TTL lapsed")
	}
	if _, _, found := e.Get("k/1"); found {
		t.Fatal("lease key survived expiry")
	}
}

// waitWatchers polls for the expected live-watcher count (expiry
// callbacks run on the clock goroutine).
func waitWatchers(t *testing.T, e *Engine, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //lint:allow wallclock real-time convergence poll for clock-goroutine callbacks
	//lint:allow wallclock real-time convergence poll for clock-goroutine callbacks
	for time.Now().Before(deadline) {
		if e.WatcherCount() == want {
			return
		}
		time.Sleep(time.Millisecond) //lint:allow wallclock real-time convergence poll for clock-goroutine callbacks
	}
	t.Fatalf("watchers = %d, want %d", e.WatcherCount(), want)
}
