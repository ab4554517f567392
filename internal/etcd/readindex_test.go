package etcd

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/raft"
)

// The tests in this file pin the read-index read path: Get/Range served
// from local MVCC snapshots must stay linearizable through leader
// partitions (never returning a value older than an acknowledged
// write), whether a live lease or a confirmation round vouches for the
// read index, and SerializableRange must be stale-at-worst, wrong-never.

// noLease leaves raft's check-quorum lease no length (a drift bound as
// long as the shortest election timeout), so every linearizable read
// pays a confirmation round — the lease-miss path, made the only one.
func noLease(cfg *raft.Config) { cfg.MaxClockDrift = cfg.ElectionTimeoutMin }

// TestReadModesAgree: once the cluster is quiescent, Get, Range and
// read-only Txn answer exactly what was written, whether the lease
// vouches for each read (leaseread) or each pays a round (readindex), and
// SerializableRange answers what Range does.
func TestReadModesAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mods []func(*raft.Config)
		scan func(*Store, string) ([]KV, error)
	}{
		{"leaseread", nil, (*Store).Range},
		{"readindex", []func(*raft.Config){noLease}, (*Store).Range},
		{"serializable", nil, (*Store).SerializableRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestStore(t, 3, tc.mods...)
			for i := 0; i < 6; i++ {
				if _, err := s.Put(fmt.Sprintf("/m/k%d", i), fmt.Sprintf("v%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			v, found, err := s.Get("/m/k3")
			if err != nil || !found || v != "v3" {
				t.Fatalf("get = (%q,%v,%v), want (v3,true,nil)", v, found, err)
			}
			if _, found, err = s.Get("/m/missing"); err != nil || found {
				t.Fatalf("missing get = (%v,%v)", found, err)
			}
			kvs, err := tc.scan(s, "/m/")
			if err != nil || len(kvs) != 6 {
				t.Fatalf("range = (%d kvs, %v), want 6", len(kvs), err)
			}
			for i, kv := range kvs {
				if kv.Key != fmt.Sprintf("/m/k%d", i) || kv.Value != fmt.Sprintf("v%d", i) {
					t.Fatalf("range[%d] = %+v", i, kv)
				}
			}
			// Read-only txn: pure guard evaluation, no mutations.
			ok, _, err := s.Txn([]Cmp{{Key: "/m/k3", Prev: "v3", PrevExists: true}}, nil, nil)
			if err != nil || !ok {
				t.Fatalf("read-only txn = (%v,%v), want guard to hold", ok, err)
			}
			ok, _, err = s.Txn([]Cmp{{Key: "/m/k3", Prev: "stale", PrevExists: true}}, nil, nil)
			if err != nil || ok {
				t.Fatalf("read-only txn with stale guard = (%v,%v), want false", ok, err)
			}
		})
	}
}

// TestReadIndexReadsCostNoProposals: Get/Range cost zero Raft
// proposals, whether the lease answers them or each pays a confirmation
// round.
func TestReadIndexReadsCostNoProposals(t *testing.T) {
	const reads = 25
	for _, lease := range []bool{true, false} {
		var mods []func(*raft.Config)
		if !lease {
			mods = append(mods, noLease)
		}
		s, _ := newTestStore(t, 3, mods...)
		if _, err := s.Put("/p/k", "v"); err != nil {
			t.Fatal(err)
		}
		base, rounds := s.Proposals(), s.ReadStats().Rounds
		for i := 0; i < reads; i++ {
			if _, _, err := s.Get("/p/k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Range("/p/"); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Proposals() - base; got != 0 {
			t.Fatalf("lease %v: %d proposals for %d reads, want 0", lease, got, 2*reads)
		}
		if got := s.ReadStats().Rounds - rounds; !lease && got < 2*reads {
			t.Fatalf("without a lease %d reads paid %d rounds, want one each", 2*reads, got)
		}
	}
}

// TestReadIndexLinearizableUnderLeaderPartition is the chaos probe: a
// single writer bumps a counter while the current leader is repeatedly
// isolated mid-storm; after every acknowledged write, a read must
// return a value at least as new — never an older acknowledged state,
// which is exactly what a deposed leader serving reads from its local
// snapshot (or a stale check-quorum lease outliving its bound) would
// produce. Run with a lease and with none: the lease fast path must
// survive the same storm as a round per read.
func TestReadIndexLinearizableUnderLeaderPartition(t *testing.T) {
	t.Run("readindex", func(t *testing.T) { testLinearizableUnderLeaderPartition(t, noLease) })
	t.Run("leaseread", func(t *testing.T) { testLinearizableUnderLeaderPartition(t) })
}

func testLinearizableUnderLeaderPartition(t *testing.T, mods ...func(*raft.Config)) {
	s, clk := newTestStore(t, 3, mods...)

	var acked int64 // highest value whose Put was acknowledged
	partitioned := -1
	const writes = 30
	for i := 1; i <= writes; i++ {
		// Isolate the current leader every 10 writes, healing the
		// previous victim so a quorum always exists.
		if i%10 == 5 {
			if partitioned >= 0 {
				s.HealNode(partitioned)
			}
			if lead := s.LeaderID(); lead >= 0 {
				s.PartitionNode(lead)
				partitioned = lead
			}
		}
		// Writes may time out during failover; only acknowledged ones
		// raise the linearizability floor (a timed-out write may still
		// commit, which can only push reads forward, never back).
		deadline := clk.Now().Add(30 * time.Second)
		for clk.Now().Before(deadline) {
			if _, err := s.Put("/probe/counter", strconv.FormatInt(int64(i), 10)); err == nil {
				acked = int64(i)
				break
			}
		}
		if acked != int64(i) {
			t.Fatalf("write %d never acknowledged", i)
		}

		v, found, err := s.Get("/probe/counter")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !found {
			t.Fatalf("read %d: counter missing after acknowledged write %d", i, acked)
		}
		got, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("read %d: bad counter %q", i, v)
		}
		if got < acked {
			t.Fatalf("stale read: got %d after write %d was acknowledged", got, acked)
		}
	}
	if partitioned >= 0 {
		s.HealNode(partitioned)
	}
}

// TestSerializableBoundedStaleness: with the quorum gone, linearizable
// reads block (and time out) rather than guess — while SerializableRange
// keeps answering from local state with a previously acknowledged value:
// bounded staleness, not wrongness. Without a lease, so the Get cannot
// ride one granted just before the cut.
func TestSerializableBoundedStaleness(t *testing.T) {
	s, clk := newTestStore(t, 3, noLease)
	s.timeout = 2 * time.Second // keep the no-quorum timeout cheap

	acked := make(map[string]bool)
	var last string
	for i := 1; i <= 5; i++ {
		last = fmt.Sprintf("v%d", i)
		if _, err := s.Put("/s/k", last); err != nil {
			t.Fatal(err)
		}
		acked[last] = true
	}
	// Let every replica apply the final write so staleness below is the
	// partition's doing, not apply lag.
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		all := true
		s.mu.Lock()
		for _, sm := range s.sms {
			if v, _, ok := sm.engine().Get("/s/k"); !ok || v != last {
				all = false
			}
		}
		s.mu.Unlock()
		if all {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}

	// Destroy the quorum: isolate two of three nodes.
	ids := s.Nodes()
	s.PartitionNode(ids[0])
	s.PartitionNode(ids[1])

	if _, _, err := s.Get("/s/k"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read-index get without quorum = %v, want ErrTimeout", err)
	}

	read := func() (string, error) {
		kvs, err := s.SerializableRange("/s/k")
		if err != nil || len(kvs) != 1 {
			return "", fmt.Errorf("%d keys, %v", len(kvs), err)
		}
		return kvs[0].Value, nil
	}
	v, err := read()
	if err != nil {
		t.Fatalf("serializable read without quorum: %v, want a value", err)
	}
	if !acked[v] {
		t.Fatalf("serializable read returned %q, not any acknowledged value", v)
	}
	if v != last {
		t.Logf("serializable read lagged: %q (acceptable bounded staleness)", v)
	}

	// A write cannot commit without quorum; the serializable read still
	// answers from the acknowledged past afterwards.
	if _, err := s.Put("/s/k", "v6"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("put without quorum = %v, want ErrTimeout", err)
	}
	v, err = read()
	if err != nil || !acked[v] {
		t.Fatalf("serializable read after failed write = (%q,%v), want an acknowledged value", v, err)
	}

	s.HealNode(ids[0])
	s.HealNode(ids[1])
}

// TestSerializableRangeOptIn: SerializableRange answers without quorum
// where Range, a round per read here, cannot.
func TestSerializableRangeOptIn(t *testing.T) {
	s, _ := newTestStore(t, 3, noLease)
	s.timeout = 2 * time.Second
	for i := 0; i < 3; i++ {
		if _, err := s.Put(fmt.Sprintf("/gc/j1/k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.Nodes()
	s.PartitionNode(ids[0])
	s.PartitionNode(ids[1])

	if _, err := s.Range("/gc/j1/"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read-index range without quorum = %v, want ErrTimeout", err)
	}
	kvs, err := s.SerializableRange("/gc/j1/")
	if err != nil || len(kvs) != 3 {
		t.Fatalf("serializable range = (%d kvs, %v), want 3", len(kvs), err)
	}
	s.HealNode(ids[0])
	s.HealNode(ids[1])
}

// TestOpCountsSplitFailures: timed-out reads land in the failure
// counters, so RangeOps only counts scans that actually completed.
func TestOpCountsSplitFailures(t *testing.T) {
	s, _ := newTestStore(t, 3, noLease)
	s.timeout = time.Second
	if _, err := s.Put("/c/k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Range("/c/"); err != nil {
		t.Fatal(err)
	}
	before := s.OpCounts()
	if before["range"] != 1 || before["range_fail"] != 0 {
		t.Fatalf("counts after one clean range = %v", before)
	}

	for _, id := range s.Nodes() {
		s.PartitionNode(id)
	}
	if _, err := s.Range("/c/"); err == nil {
		t.Fatal("range with every node isolated succeeded")
	}
	after := s.OpCounts()
	if after["range"] != 1 {
		t.Fatalf("failed range inflated the success counter: %v", after)
	}
	if after["range_fail"] != 1 {
		t.Fatalf("failed range not counted as failure: %v", after)
	}
	if got := s.RangeOps(); got != 1 {
		t.Fatalf("RangeOps = %d, want 1 (successes only)", got)
	}
	for _, id := range s.Nodes() {
		s.HealNode(id)
	}
}
