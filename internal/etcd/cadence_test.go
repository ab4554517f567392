package etcd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// The tests in this file pin what raft's idle cadence (a settled log
// heartbeats at a tenth of the rate) means at the store: what an idle
// store costs, and that a client finding no leader gets one elected in an
// ordinary election timeout all the same.

// idleRounds sums the idle heartbeat rounds of every live replica.
func idleRounds(s *Store) uint64 {
	var n uint64
	for _, rs := range s.ReplicationStats() {
		n += rs.IdleRounds
	}
	return n
}

// idleStore returns a warmed 3-replica store that has been left alone
// long enough to be in an idle spell.
func idleStore(t *testing.T) (*Store, *clock.Sim) {
	t.Helper()
	s, clk := newTestStore(t, 3)
	if _, err := s.Put("/warm", "x"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(2 * time.Second)
	before := idleRounds(s)
	clk.Sleep(2 * time.Second)
	if got := idleRounds(s) - before; got < 3 || got > 5 {
		t.Fatalf("%d idle rounds in two quiet seconds, want one per half second", got)
	}
	return s, clk
}

// TestIdleClusterInstantBudget: an idle 3-replica store is two rounds a
// virtual second, three instants each (tick, arrival, ack) — 120 instants
// in twenty seconds, where the free-running 50 ms heartbeat made 1 200.
// Every instant is ≈ 0.15–0.45 ms of wall on the sim clock whatever
// happens in it (README "The price of an instant"), so this is what a
// platform with nothing to do pays for its metadata plane.
func TestIdleClusterInstantBudget(t *testing.T) {
	_, clk := idleStore(t)
	const idle = 20 // virtual seconds
	before := clk.Instants()
	clk.Sleep(idle * time.Second)
	if got := clk.Instants() - before; got > 200 {
		t.Errorf("idle store fired %d instants in %d virtual seconds, budget 200", got, idle)
	} else {
		t.Logf("idle store: %d instants in %d virtual seconds", got, idle)
	}
}

// TestIdleLeaderCrashFailsOverOnDemand: the leader dies during an idle
// spell, when the followers would wait 1.5–3 s before suspecting
// anything. The first Put finds no leader, wakes them, and commits within
// one ordinary election timeout plus its own retry grain.
func TestIdleLeaderCrashFailsOverOnDemand(t *testing.T) {
	s, clk := idleStore(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	leader := s.LeaderID()
	if leader < 0 {
		t.Fatal("no leader")
	}
	clk.Sleep(120 * time.Millisecond) // somewhere inside an idle interval
	start := clk.Now()
	s.CrashNode(leader)
	if _, err := s.Put("/after", "y"); err != nil {
		t.Fatalf("Put after the idle leader crashed: %v", err)
	}
	if got := clk.Since(start); got >= 400*time.Millisecond {
		t.Fatalf("first Put committed %v after the crash, want under 400 ms", got)
	} else {
		t.Logf("crash → first Put: %v", got)
	}
	woken := 0.0
	for _, id := range s.Nodes() {
		woken += reg.Counter("raft_wakes", nodeLabel(id), "client")
	}
	if woken == 0 {
		t.Fatal("no member counts a client wake: the followers were not on the idle cadence, or were not asked")
	}
}

// TestIdleLeaderPartitionFailsOverOnDemand: a leader cut off during an
// idle spell still says it leads, so the first Put is proposed to it and
// learns of the trouble only when proposeWait runs out. That wakes the
// majority, which elects within one ordinary timeout while the Put looks
// for the successor every retryPause instead of proposing to the same
// leader again: proposeWait plus one election, not the 1.5–3 s the
// followers would have sat out by themselves.
func TestIdleLeaderPartitionFailsOverOnDemand(t *testing.T) {
	s, clk := idleStore(t)
	leader := s.LeaderID()
	clk.Sleep(20 * time.Millisecond)
	start := clk.Now()
	s.PartitionNode(leader)
	if _, err := s.Put("/after", "y"); err != nil {
		t.Fatalf("Put after the idle leader was cut off: %v", err)
	}
	got := clk.Since(start)
	if limit := proposeWait + 350*time.Millisecond; got > limit { // ElectionTimeoutMax, a vote, a retry, a commit
		t.Fatalf("first Put committed %v after the partition, want within %v", got, limit)
	}
	t.Logf("partition → first Put: %v", got)
	if now := s.LeaderID(); now == leader || now < 0 {
		t.Fatalf("leader after the partition: %d (was %d)", now, leader)
	}
	s.HealNode(leader)
}

func nodeLabel(id int) string { return fmt.Sprintf("node%d", id) }
