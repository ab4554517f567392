package raft

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// newTestClusterCfg boots a cluster with the default config after letting
// the test tweak it (the lease's drift bound).
func newTestClusterCfg(t *testing.T, n int, mod func(*Config)) (*Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	cfg := DefaultConfig(clk)
	if mod != nil {
		mod(&cfg)
	}
	c := NewCluster(n, cfg)
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

// commitLatencies proposes count sequential commands on l and returns each
// one's commit latency in clock time. The clock is a manual one that only
// this steps, so each latency is exact: the instant the commit index first
// covers the proposal, with everything that instant woke run to a stop.
func commitLatencies(t *testing.T, clk *clock.Sim, l *Node, count int) []time.Duration {
	t.Helper()
	var out []time.Duration
	for i := 0; i < count; i++ {
		start := clk.Now()
		idx, _, err := l.Propose([]byte(fmt.Sprintf("lat-%d", i)))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		for deadline := start.Add(5 * time.Second); l.CommitIndex() < idx; step(t, clk) {
			if clk.Now().After(deadline) {
				t.Fatalf("proposal %d never committed", i)
			}
		}
		out = append(out, clk.Now().Sub(start))
	}
	return out
}

func p99(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*99)/100]
}

// TestCommitLatencySlowFollower checks the pipelined write path's core
// latency property: commits need only a quorum, so one slow follower
// (200ms extra one-way latency) must not drag p99 commit latency beyond
// 2x the all-fast baseline. Under stop-and-wait with a shared outstanding
// round this held too, but pipelining must not regress it by stalling the
// leader on the slow peer.
func TestCommitLatencySlowFollower(t *testing.T) {
	measure := func(delay time.Duration) time.Duration {
		c, clk := newManualCluster(t, 3)
		clocktest.Run(clk, time.Second)
		l := c.Leader()
		if l == nil {
			t.Fatal("no leader after one second")
		}
		if delay > 0 {
			// Slow down one follower, never the leader.
			for _, id := range c.IDs() {
				if id != l.ID() {
					c.Transport().SetNodeDelay(id, delay)
					break
				}
			}
		}
		return p99(commitLatencies(t, clk, l, 30))
	}
	base := measure(0)
	slow := measure(200 * time.Millisecond)
	t.Logf("p99 commit latency: %v with every follower fast, %v with one slow", base, slow)
	// Both p99s are exact on the manual clock; the +10ms slack is kept
	// from when they were polled in 1ms sleeps on an auto-advancing one.
	// A quorum stall would show up as >=200ms, far beyond the bound.
	if limit := 2*base + 10*time.Millisecond; slow > limit {
		t.Fatalf("p99 commit latency with slow follower = %v, want <= %v (baseline %v)", slow, limit, base)
	}
}

// TestAppliesDeliveredInOrder is the regression test for the per-broadcast
// `go deliver(...)` bug: each broadcast used to spawn its own delivery
// goroutine, so two batches of applies could race onto ApplyCh out of
// order. With the single ordered drainer, every node must observe strictly
// increasing entry indexes. Run under -race in the short CI tier. On a
// manual clock, so a kernel time slice cannot stretch the burst.
func TestAppliesDeliveredInOrder(t *testing.T) { appliesDeliveredInOrder(t, LinkFaults{}) }

func appliesDeliveredInOrder(t *testing.T, faults LinkFaults) {
	c, clk := newManualCluster(t, 3)
	clocktest.Run(clk, time.Second)
	if c.Leader() == nil {
		t.Fatal("no leader")
	}
	c.Transport().SetFaults(faults)
	const total = 60
	// Burst proposals without waiting for commits so many AppendEntries
	// rounds (and their response-driven apply enqueues) overlap: four per
	// quarter of a link latency, so acks return while the burst goes on.
	for i := 0; i < total; i++ {
		proposeOK(t, c, manual{clk}, fmt.Sprintf("ord-%d", i))
		if i%4 == 3 {
			clocktest.Run(clk, linkLatency/4)
		}
	}
	c.Transport().SetFaults(LinkFaults{})
	got := waitCommitted(t, c, manual{clk}, total, 30*time.Second)
	for _, id := range c.IDs() {
		var prev uint64
		for _, e := range got[id] {
			if e.Index <= prev {
				t.Fatalf("node %d: apply index %d after %d (out of order)", id, e.Index, prev)
			}
			prev = e.Index
		}
	}
}

// TestApplyQueueAllocs: a step appends committed entries straight onto
// the driver's apply queue, and the run loop hands them to applyCh from it
// in place, so once the queue has grown committed entries reach applyCh
// without allocating (a slice per commit and another per enqueue was ≈ 5
// objects per write across three replicas). On a one-node cluster whose
// manual clock never moves, so nothing else steps it. Not parallel:
// AllocsPerRun counts the whole process.
func TestApplyQueueAllocs(t *testing.T) {
	const perCommit, commits = 4, 200
	c, _ := newManualCluster(t, 1)
	n := c.Node(0)
	n.mu.Lock()
	for i := 1; i <= perCommit*commits; i++ {
		n.core.log = append(n.core.log, Entry{Index: uint64(i), Term: 1, Cmd: []byte("x")})
	}
	n.mu.Unlock()
	next := uint64(1)
	commit := func() {
		n.mu.Lock()
		n.core.commitIndex += perCommit
		n.core.enqueueApplies()
		n.execute()
		n.mu.Unlock()
		for i := 0; i < perCommit; i++ {
			if a := <-n.applyCh; a.Entry.Index != next {
				t.Fatalf("applied %d, want %d", a.Entry.Index, next)
			}
			next++
		}
	}
	for i := 0; i < commits/2; i++ { // the queue at size
		commit()
	}
	if got := testing.AllocsPerRun(commits/2-1, commit); got != 0 {
		t.Errorf("%v objects per commit of %d entries, want 0", got, perCommit)
	}
}
