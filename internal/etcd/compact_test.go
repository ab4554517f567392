package etcd

import (
	"fmt"
	"testing"
	"time"
)

// TestAutoCompactionBoundsLog: with a small compaction threshold, the
// Raft log stays bounded under sustained writes and the store keeps
// serving correct reads.
func TestAutoCompactionBoundsLog(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.SetCompactEvery(20)
	const writes = 120
	for i := 0; i < writes; i++ {
		if _, err := s.Put(fmt.Sprintf("/k%d", i%10), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// All data still correct after compaction cycles.
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", writes-10+i)
		got, found, err := s.Get(fmt.Sprintf("/k%d", i))
		if err != nil || !found || got != want {
			t.Fatalf("key /k%d = (%q,%v,%v), want %q", i, got, found, err, want)
		}
	}
	// Some node must have compacted: its in-memory log is much shorter
	// than the total write count.
	compacted := false
	for _, id := range s.cluster.IDs() {
		n := s.cluster.Node(id)
		if n != nil && len(n.Log()) < writes {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("no node compacted its log")
	}
}

// TestRestartedNodeRestoresFromSnapshot: crash a node, write enough to
// trigger compaction on the survivors, restart it — it must catch up via
// snapshot installation and then participate in quorum.
func TestRestartedNodeRestoresFromSnapshot(t *testing.T) {
	s, clk := newTestStore(t, 3)
	s.SetCompactEvery(15)
	s.CrashNode(2)
	for i := 0; i < 60; i++ {
		if _, err := s.Put(fmt.Sprintf("/data/%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.RestartNode(2)
	// Give the snapshot transfer time, then prove node 2 carries the
	// state: crash a different node so quorum depends on node 2.
	clk.Sleep(2 * time.Second)
	s.CrashNode(0)
	deadline := clk.Now().Add(30 * time.Second)
	var lastErr error
	for clk.Now().Before(deadline) {
		if _, lastErr = s.Put("/after", "restart"); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("quorum with snapshot-restored node failed: %v", lastErr)
	}
	got, found, err := s.Get("/data/42")
	if err != nil || !found || got != "v42" {
		t.Fatalf("read after snapshot restore = (%q,%v,%v)", got, found, err)
	}
}

// TestCompactionPreservesExactlyOnce: dedup state survives compaction,
// so a retried proposal straddling a snapshot is still applied once.
func TestCompactionPreservesExactlyOnce(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.SetCompactEvery(10)
	// Interleave CAS (non-idempotent) with enough writes to compact.
	if err := s.CompareAndSwap("/lock", "", false, "holder"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Put(fmt.Sprintf("/fill/%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// The lock is still held by the original holder.
	v, found, err := s.Get("/lock")
	if err != nil || !found || v != "holder" {
		t.Fatalf("lock = (%q,%v,%v)", v, found, err)
	}
	_ = time.Second
}
