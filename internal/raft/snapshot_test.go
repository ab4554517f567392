package raft

import (
	"fmt"
	"testing"
	"time"
)

func TestCompactTruncatesLog(t *testing.T) {
	c, clk := newTestCluster(t, 1)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 10; i++ {
		if _, _, err := l.Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCommitted(t, c, clk, 10, 10*time.Second)
	if err := l.Compact(5, []byte("state@5")); err != nil {
		t.Fatal(err)
	}
	if got := len(l.Log()); got != 5 {
		t.Fatalf("log length after compact = %d, want 5", got)
	}
	// The tail must still be addressable and commits must continue.
	if _, _, err := l.Propose([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) && l.CommitIndex() < 11 {
		clk.Sleep(20 * time.Millisecond)
	}
	if l.CommitIndex() < 11 {
		t.Fatalf("commit stalled after compaction: %d", l.CommitIndex())
	}
}

func TestCompactBeyondAppliedRejected(t *testing.T) {
	c, clk := newTestCluster(t, 1)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	if _, _, err := l.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, c, clk, 1, 5*time.Second)
	if err := l.Compact(99, nil); err == nil {
		t.Fatal("compacting beyond applied index succeeded")
	}
	// Compacting at or below the snapshot is a silent no-op.
	if err := l.Compact(1, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, []byte("s")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSurvivesRestart(t *testing.T) {
	c, clk := newTestCluster(t, 1)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 6; i++ {
		if _, _, err := l.Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCommitted(t, c, clk, 6, 10*time.Second)
	if err := l.Compact(6, []byte("state@6")); err != nil {
		t.Fatal(err)
	}
	c.Crash(0)
	n := c.Restart(0)
	snap, idx := n.Snapshot()
	if idx != 6 || string(snap) != "state@6" {
		t.Fatalf("restored snapshot = (%q,%d), want (state@6,6)", snap, idx)
	}
	if len(n.Log()) != 0 {
		t.Fatalf("restored log length = %d, want 0", len(n.Log()))
	}
}

func TestLaggingFollowerReceivesSnapshot(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	// Pick a follower and crash it.
	follower := -1
	for _, id := range c.IDs() {
		if id != l.ID() {
			follower = id
			break
		}
	}
	c.Crash(follower)

	// Commit a batch and compact it away on the survivors.
	for i := 0; i < 8; i++ {
		proposeOK(t, c, clk, fmt.Sprintf("e%d", i))
	}
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if lead := c.Leader(); lead != nil && lead.CommitIndex() >= 8 {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	lead := c.Leader()
	if lead == nil {
		t.Fatal("no leader after batch")
	}
	// Drain the leader's applies so Compact is legal, then compact.
	drained := 0
	deadline = clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) && drained < 8 {
		select {
		case <-lead.ApplyCh():
			drained++
		default:
			clk.Sleep(10 * time.Millisecond)
		}
	}
	if err := lead.Compact(8, []byte("state@8")); err != nil {
		t.Fatal(err)
	}

	// Restart the follower: the leader must fast-forward it with an
	// InstallSnapshot, delivered on its apply channel.
	n := c.Restart(follower)
	deadline = clk.Now().Add(20 * time.Second)
	for clk.Now().Before(deadline) {
		select {
		case a := <-n.ApplyCh():
			if a.IsSnapshot {
				if string(a.Snapshot) != "state@8" || a.SnapIndex != 8 {
					t.Fatalf("snapshot apply = (%q,%d)", a.Snapshot, a.SnapIndex)
				}
				return
			}
		default:
			clk.Sleep(20 * time.Millisecond)
		}
	}
	t.Fatal("lagging follower never received a snapshot")
}
