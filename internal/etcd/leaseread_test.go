package etcd

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// The tests in this file pin the facade half of the quorum-amortized
// read path: lease reads must stay linearizable under skew and churn,
// reads must spread across replicas by load, and the leader cache must
// never outlive a leadership change.

// putRetry keeps writing until the store acknowledges — failovers in
// the middle of a schedule make individual Puts fail legitimately.
func putRetry(s *Store, clk *clock.Sim, key, val string, timeout time.Duration) bool {
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if _, err := s.Put(key, val); err == nil {
			return true
		}
	}
	return false
}

// TestLeaseReadSkewedLeaderNeverStale: step the leader's clock far past
// the raft drift bound, partition it, commit a new value on the
// majority side — a Get must return the new value, never the
// skewed ex-leader's stale snapshot. This is the etcd-level shape of
// the raft zombie-lease test: the fault injection travels through
// SkewNodeClock (the chaos layer's SkewEtcdClock primitive).
func TestLeaseReadSkewedLeaderNeverStale(t *testing.T) {
	s, clk := newTestStore(t, 3)
	if _, err := s.Put("/lz/k", "old"); err != nil {
		t.Fatal(err)
	}
	lead := s.LeaderID()
	if lead < 0 {
		t.Fatal("no leader")
	}
	// Skew while connected: follower clock echoes must kill the lease
	// within a heartbeat or two.
	s.SkewNodeClock(lead, -10*time.Second)
	clk.Sleep(200 * time.Millisecond)
	s.PartitionNode(lead)

	if !putRetry(s, clk, "/lz/k", "new", 30*time.Second) {
		t.Fatal("majority never acknowledged the new value")
	}
	v, found, err := s.Get("/lz/k")
	if err != nil || !found {
		t.Fatalf("get after failover = (%v,%v)", found, err)
	}
	if v != "new" {
		t.Fatalf("stale read: got %q after %q was acknowledged", v, "new")
	}
	s.HealNode(lead)
	s.SkewNodeClock(lead, 0)
}

// TestQuickLeaseReadEquivalence: over random schedules of fenced
// writes, linearizable reads, replica crash/restarts and partition/heals,
// every read returns the write acknowledged just before it. Fencing (each
// write fully acknowledged before its read, one writer) makes that the
// one linearizable answer, so the model is the last acknowledged write
// and any other answer is a stale read.
func TestQuickLeaseReadEquivalence(t *testing.T) {
	skipIfRaceShort(t)
	f := func(schedule []uint8) bool {
		if len(schedule) > 8 {
			schedule = schedule[:8]
		}
		clk := clock.NewSim()
		defer clk.Close()
		s, err := NewWithOptions(3, clk, StoreOptions{})
		if err != nil {
			return false
		}
		defer s.Close()
		val := 0
		for _, op := range schedule {
			switch op % 4 {
			case 0, 1: // fenced write, then a linearizable read
				val++
				want := fmt.Sprintf("v%d", val)
				if !putRetry(s, clk, "/q/k", want, 30*time.Second) {
					t.Logf("schedule %v: write %q never acknowledged", schedule, want)
					return false
				}
				v, found, err := s.Get("/q/k")
				if err != nil || !found {
					t.Logf("schedule %v: read after %q = (%v, %v)", schedule, want, found, err)
					return false
				}
				if v != want {
					t.Logf("schedule %v: STALE: read %q after %q was acknowledged", schedule, v, want)
					return false
				}
			case 2: // crash + restart a non-leader replica
				lead := s.LeaderID()
				for _, id := range s.Nodes() {
					if id != lead {
						s.CrashNode(id)
						s.RestartNode(id)
						break
					}
				}
			case 3: // partition, then heal, a non-leader replica
				lead := s.LeaderID()
				for _, id := range s.Nodes() {
					if id != lead {
						s.PartitionNode(id)
						clk.Sleep(60 * time.Millisecond)
						s.HealNode(id)
						clk.Sleep(60 * time.Millisecond)
						break
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerReadRoutingSpreads: read waits are dispatched by load,
// not pinned to the contacted node — with one slow follower, a burst
// of reads still lands on more than one replica and every read
// completes. The instrumented per-replica counter must see the same
// distribution.
func TestFollowerReadRoutingSpreads(t *testing.T) {
	s, clk := newTestStore(t, 3)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	if _, err := s.Put("/r/k", "v"); err != nil {
		t.Fatal(err)
	}
	lead := s.LeaderID()
	for _, id := range s.Nodes() {
		if id != lead {
			s.SetNodeDelay(id, 5*time.Millisecond)
			break
		}
	}
	const reads = 30
	for i := 0; i < reads; i++ {
		if _, _, err := s.Get("/r/k"); err != nil {
			t.Fatalf("routed read %d: %v", i, err)
		}
		// Let the followers' appliers catch up between reads: replicas
		// already at the read index are preferred, and rotation only
		// spreads ties within that ready class.
		clk.Sleep(5 * time.Millisecond)
	}
	routed := s.ReadsRouted()
	var total uint64
	served := 0
	for id, n := range routed {
		total += n
		if n > 0 {
			served++
		}
		if got := reg.Counter("etcd_reads_routed", fmt.Sprintf("node%d", id)); uint64(got) != n {
			t.Fatalf("node%d metric %v != counter %d", id, got, n)
		}
	}
	if total < reads {
		t.Fatalf("routed %d waits for %d reads", total, reads)
	}
	if served < 2 {
		t.Fatalf("all reads pinned to one replica: %v", routed)
	}
}

// TestLeaderCacheReuseAndInvalidation: the hot paths resolve the leader
// through the cache (same pointer, no re-scan), and the cache drops on
// crash so no op can be routed to a dead node's stale handle.
func TestLeaderCacheReuseAndInvalidation(t *testing.T) {
	s, clk := newTestStore(t, 3)
	if _, err := s.Put("/c/k", "v"); err != nil {
		t.Fatal(err)
	}
	l1 := s.leader()
	if l1 == nil {
		t.Fatal("no leader resolved")
	}
	if s.leaderCache.Load() != l1 {
		t.Fatal("leader() did not prime the cache")
	}
	if l2 := s.leader(); l2 != l1 {
		t.Fatal("cached leader not reused")
	}

	s.CrashNode(l1.ID())
	if s.leaderCache.Load() != nil {
		t.Fatal("CrashNode left the crashed leader cached")
	}
	deadline := clk.Now().Add(15 * time.Second)
	for clk.Now().Before(deadline) {
		if l := s.leader(); l != nil && l.ID() != l1.ID() {
			if s.leaderCache.Load() != l {
				t.Fatal("re-resolve did not re-prime the cache")
			}
			s.RestartNode(l1.ID())
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no successor leader after crash")
}

// skipIfRaceShort skips the heavyweight quickcheck run in -short mode.
func skipIfRaceShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("quickcheck run skipped in -short mode")
	}
}
