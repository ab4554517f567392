package raft

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func entries(term uint64, from, to uint64) []Entry {
	var out []Entry
	for i := from; i <= to; i++ {
		out = append(out, Entry{Index: i, Term: term, Cmd: []byte(fmt.Sprintf("t%d-%d", term, i))})
	}
	return out
}

func TestStorageWritesOnlyWhatChanged(t *testing.T) {
	m := NewMemoryStorage()
	if s := m.Load(); s.VotedFor != -1 || s.Term != 0 || len(s.Log) != 0 {
		t.Fatalf("fresh storage holds %+v", s)
	}
	m.SetHardState(3, 1)
	m.AppendEntries(1, entries(1, 1, 5))
	// A leader's view replaces a conflicting suffix: 4 and 5 go, 4..7 come.
	m.AppendEntries(4, entries(3, 4, 7))
	want := append(entries(1, 1, 3), entries(3, 4, 7)...)
	s := m.Load()
	if s.Term != 3 || s.VotedFor != 1 || !reflect.DeepEqual(s.Log, want) {
		t.Fatalf("after a suffix replacement: %+v", s)
	}
	s.Log[0].Term = 99 // Load hands out a copy
	if m.Load().Log[0].Term != 1 {
		t.Fatal("Load aliases the stored log")
	}

	m.Compact(5, 3, []byte("image@5"))
	s = m.Load()
	if s.SnapIndex != 5 || s.SnapTerm != 3 || string(s.Snapshot) != "image@5" || !reflect.DeepEqual(s.Log, entries(3, 6, 7)) {
		t.Fatalf("after Compact(5): %+v", s)
	}
	m.AppendEntries(8, entries(3, 8, 8))
	if got := m.Load().Log; !reflect.DeepEqual(got, entries(3, 6, 8)) {
		t.Fatalf("append after compaction: %+v", got)
	}
	m.InstallSnapshot(20, 4, []byte("image@20"))
	s = m.Load()
	if s.SnapIndex != 20 || s.SnapTerm != 4 || len(s.Log) != 0 || s.Term != 3 || s.VotedFor != 1 {
		t.Fatalf("after InstallSnapshot(20): %+v", s)
	}
	if got := m.Saves(); got != 6 {
		t.Fatalf("Saves() = %d after 6 writes", got)
	}
}

// TestStorageAppendAllocBudget: persisting one more entry costs no more
// when the log is long — Save used to copy all of it, every time.
func TestStorageAppendAllocBudget(t *testing.T) {
	m := NewMemoryStorage()
	m.AppendEntries(1, entries(1, 1, 1000))
	next := uint64(1001)
	one := entries(1, next, next)
	if got := testing.AllocsPerRun(100, func() {
		one[0].Index = next
		m.AppendEntries(next, one)
		next++
	}); got != 0 {
		t.Errorf("%v allocs per one-entry append to a 1000-entry log, want 0 (amortised)", got)
	}
}

// TestStorageMirrorsNodeState: every site that changes a node's term,
// vote, log or snapshot persists exactly that change, so after any
// history — elections, a deposed leader's suffix overwritten, a crash and
// restart, compaction, an installed snapshot — what a restart would load is
// what the node holds.
func TestStorageMirrorsNodeState(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	check := func(when string) {
		t.Helper()
		for _, id := range c.IDs() {
			n := c.Node(id)
			if n == nil {
				continue
			}
			n.mu.Lock()
			disk, st := c.storages[id].Load(), n.core
			ok := disk.Term == st.currentTerm && disk.VotedFor == st.votedFor &&
				disk.SnapIndex == st.snapIndex && disk.SnapTerm == st.snapTerm &&
				bytes.Equal(disk.Snapshot, st.snapshot) && len(disk.Log) == len(st.log)
			for i := 0; ok && i < len(st.log); i++ {
				ok = disk.Log[i].Index == st.log[i].Index && disk.Log[i].Term == st.log[i].Term &&
					bytes.Equal(disk.Log[i].Cmd, st.log[i].Cmd)
			}
			if !ok {
				t.Errorf("%s: node %d holds term %d vote %d snap %d/%d log %d entries; its storage term %d vote %d snap %d/%d log %d entries",
					when, id, st.currentTerm, st.votedFor, st.snapIndex, st.snapTerm, len(st.log),
					disk.Term, disk.VotedFor, disk.SnapIndex, disk.SnapTerm, len(disk.Log))
			}
			n.mu.Unlock()
		}
	}

	for i := 0; i < 5; i++ {
		proposeOK(t, c, clk, fmt.Sprintf("a%d", i))
	}
	waitCommitted(t, c, clk, 5, 10*time.Second)
	check("after the first commits")

	// Cut the leader off with entries only it holds, let the others move
	// on, and heal: its suffix conflicts and is overwritten.
	old := c.Leader()
	c.Transport().Partition(old.ID())
	for i := 0; i < 3; i++ {
		if _, _, err := old.Propose([]byte(fmt.Sprintf("lost%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	successor := waitSuccessor(t, c, clk, old.ID())
	var last uint64
	for i := 0; i < 4; i++ {
		idx, _, err := successor.Propose([]byte(fmt.Sprintf("b%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = idx
	}
	waitCommitIndex(t, successor, clk, last)
	check("with a partitioned stale leader")
	c.Transport().Heal(old.ID())
	waitCommitIndex(t, old, clk, last)
	check("after the stale leader's suffix was overwritten")

	// A follower sleeps through a compaction and comes back to a snapshot.
	var follower int
	for _, id := range c.IDs() {
		if l := c.Leader(); l != nil && id != l.ID() {
			follower = id
		}
	}
	c.Crash(follower)
	last = proposeOK(t, c, clk, "c0")
	l := c.Leader()
	waitCommitIndex(t, l, clk, last)
	for deadline := clk.Now().Add(5 * time.Second); l.Compact(last, bytes.Repeat([]byte("s"), 50)) != nil; clk.Sleep(5 * time.Millisecond) {
		if !clk.Now().Before(deadline) {
			t.Fatal("leader never applied through its own commit")
		}
	}
	check("after the leader compacted")
	f := c.Restart(follower)
	last = proposeOK(t, c, clk, "c1")
	waitCommitIndex(t, f, clk, last)
	check("after a restart into a snapshot")
}
