package raft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

func newTestCluster(t *testing.T, n int) (*Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	c := NewCluster(n, DefaultConfig(clk))
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

// sleeper is the clock the polling helpers wait on: a *clock.Sim that
// advances by itself, or manual{clk} for one that only clocktest moves.
type sleeper interface {
	Now() time.Time
	Sleep(time.Duration)
}

// manual sleeps by running a manual clock forward, so a test on
// newManualCluster can poll with the same helpers: every instant of the
// sleep runs to a stop before the next.
type manual struct{ *clock.Sim }

func (m manual) Sleep(d time.Duration) { clocktest.Run(m.Sim, d) }

// waitCommitted drains apply channels until each live node has applied at
// least want entries, returning them per node.
func waitCommitted(t *testing.T, c *Cluster, clk sleeper, want int, timeout time.Duration) map[int][]Entry {
	t.Helper()
	got := make(map[int][]Entry)
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		done := true
		for _, id := range c.IDs() {
			n := c.Node(id)
			if n == nil {
				continue
			}
			for len(got[id]) < want {
				select {
				case a := <-n.ApplyCh():
					got[id] = append(got[id], a.Entry)
				default:
					done = false
				}
				if len(got[id]) < want {
					break
				}
			}
			if len(got[id]) < want {
				done = false
			}
		}
		if done {
			return got
		}
		clk.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %d committed entries; got %v", want, lengths(got))
	return nil
}

func lengths(m map[int][]Entry) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

func proposeOK(t *testing.T, c *Cluster, clk sleeper, cmd string) uint64 {
	t.Helper()
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if l := c.Leader(); l != nil {
			if idx, _, err := l.Propose([]byte(cmd)); err == nil {
				return idx
			}
		}
		clk.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("could not propose %q", cmd)
	return 0
}

func TestSingleNodeElectsAndCommits(t *testing.T) {
	c, clk := newTestCluster(t, 1)
	l := c.WaitLeader(2 * time.Second)
	if l == nil {
		t.Fatal("no leader in single-node cluster")
	}
	idx, term, err := l.Propose([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || term == 0 {
		t.Fatalf("idx=%d term=%d", idx, term)
	}
	got := waitCommitted(t, c, clk, 1, 5*time.Second)
	if string(got[0][0].Cmd) != "x" {
		t.Fatalf("applied %q, want x", got[0][0].Cmd)
	}
}

func TestThreeNodeElection(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader elected")
	}
	// Exactly one leader.
	leaders := 0
	for _, id := range c.IDs() {
		if n := c.Node(id); n != nil && n.State() == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
}

func TestReplicationToAllNodes(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	for i := 0; i < 5; i++ {
		proposeOK(t, c, clk, fmt.Sprintf("cmd-%d", i))
	}
	got := waitCommitted(t, c, clk, 5, 10*time.Second)
	for _, id := range c.IDs() {
		for i, e := range got[id] {
			want := fmt.Sprintf("cmd-%d", i)
			if string(e.Cmd) != want {
				t.Fatalf("node %d entry %d = %q, want %q", id, i, e.Cmd, want)
			}
		}
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	proposeOK(t, c, clk, "before-crash")
	old := l.ID()
	c.Crash(old)

	// A new leader must emerge among the survivors.
	deadline := clk.Now().Add(10 * time.Second)
	var nl *Node
	for clk.Now().Before(deadline) {
		nl = c.Leader()
		if nl != nil && nl.ID() != old {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	if nl == nil || nl.ID() == old {
		t.Fatal("no failover leader elected")
	}
	// The committed entry must survive and new proposals must commit.
	proposeOK(t, c, clk, "after-crash")
	got := waitCommitted(t, c, clk, 2, 10*time.Second)
	for _, id := range c.IDs() {
		if id == old {
			continue
		}
		if string(got[id][0].Cmd) != "before-crash" || string(got[id][1].Cmd) != "after-crash" {
			t.Fatalf("node %d log = %v", id, cmds(got[id]))
		}
	}
}

func TestCrashedFollowerCatchesUpOnRestart(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	// Crash a follower, commit entries without it, restart, verify catch-up.
	var follower int = -1
	for _, id := range c.IDs() {
		if id != l.ID() {
			follower = id
			break
		}
	}
	c.Crash(follower)
	for i := 0; i < 3; i++ {
		proposeOK(t, c, clk, fmt.Sprintf("e%d", i))
	}
	c.Restart(follower)
	got := waitCommitted(t, c, clk, 3, 15*time.Second)
	want := []string{"e0", "e1", "e2"}
	for i, w := range want {
		if string(got[follower][i].Cmd) != w {
			t.Fatalf("restarted follower log = %v, want %v", cmds(got[follower]), want)
		}
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	// Partition the leader away from both followers.
	c.Transport().Partition(l.ID())
	// The old leader may still accept proposals but must not commit them.
	idx, _, err := l.Propose([]byte("lost"))
	if err == nil {
		deadline := clk.Now().Add(2 * time.Second)
		for clk.Now().Before(deadline) {
			if l.CommitIndex() >= idx {
				t.Fatal("entry committed without majority")
			}
			clk.Sleep(50 * time.Millisecond)
		}
	}
	// The majority side elects a fresh leader and commits.
	deadline := clk.Now().Add(10 * time.Second)
	var nl *Node
	for clk.Now().Before(deadline) {
		for _, id := range c.IDs() {
			if id == l.ID() {
				continue
			}
			if n := c.Node(id); n != nil && n.State() == Leader {
				nl = n
			}
		}
		if nl != nil {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	if nl == nil {
		t.Fatal("majority did not elect a leader")
	}
	if _, _, err := nl.Propose([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	// Heal: the old leader must step down and converge.
	c.Transport().Heal(l.ID())
	deadline = clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if l.State() == Follower {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	if l.State() != Follower {
		t.Fatalf("old leader state = %v, want follower", l.State())
	}
}

// TestElectionSafety: across a barrage of crashes and restarts, no term
// ever has two leaders. This is Raft's core safety property.
func TestElectionSafety(t *testing.T) {
	c, clk := newTestCluster(t, 5)
	leadersByTerm := make(map[uint64]int)

	check := func() {
		for _, id := range c.IDs() {
			n := c.Node(id)
			if n == nil || n.State() != Leader {
				continue
			}
			term := n.Term()
			if prev, ok := leadersByTerm[term]; ok && prev != id {
				t.Fatalf("term %d has two leaders: %d and %d", term, prev, id)
			}
			leadersByTerm[term] = id
		}
	}

	for round := 0; round < 5; round++ {
		if l := c.WaitLeader(5 * time.Second); l == nil {
			t.Fatal("no leader")
		}
		check()
		victim := round % 5
		c.Crash(victim)
		for i := 0; i < 20; i++ {
			check()
			clk.Sleep(20 * time.Millisecond)
		}
		c.Restart(victim)
	}
}

// TestLogMatching: after heavy churn, all live nodes' committed prefixes
// agree entry-by-entry (Log Matching property).
func TestLogMatching(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	for i := 0; i < 10; i++ {
		proposeOK(t, c, clk, fmt.Sprintf("op%d", i))
		if i == 4 {
			// Mid-stream follower crash.
			l := c.Leader()
			if l != nil {
				for _, id := range c.IDs() {
					if id != l.ID() {
						c.Crash(id)
						c.Restart(id)
						break
					}
				}
			}
		}
	}
	got := waitCommitted(t, c, clk, 10, 20*time.Second)
	ref := got[c.IDs()[0]]
	for _, id := range c.IDs()[1:] {
		other := got[id]
		for i := range ref {
			if other[i].Index != ref[i].Index || other[i].Term != ref[i].Term ||
				!bytes.Equal(other[i].Cmd, ref[i].Cmd) {
				t.Fatalf("log mismatch at %d: node0=%v node%d=%v", i, ref[i], id, other[i])
			}
		}
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	for _, id := range c.IDs() {
		n := c.Node(id)
		if n.ID() == l.ID() {
			continue
		}
		if _, _, err := n.Propose([]byte("nope")); err != ErrNotLeader {
			t.Fatalf("follower Propose err = %v, want ErrNotLeader", err)
		}
	}
}

// TestPersistenceAcrossRestart runs on a manual clock: on one that
// advances by itself, a kernel time slice could cost a round its acks.
func TestPersistenceAcrossRestart(t *testing.T) {
	c, clk := newManualCluster(t, 3)
	clocktest.Run(clk, time.Second)
	proposeOK(t, c, manual{clk}, "durable")
	waitCommitted(t, c, manual{clk}, 1, 10*time.Second)

	// Restart every node one at a time; the log must persist.
	for _, id := range c.IDs() {
		c.Crash(id)
		c.Restart(id)
	}
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		n := c.Node(0)
		log := n.Log()
		if len(log) >= 1 && string(log[0].Cmd) == "durable" {
			return
		}
		clocktest.Run(clk, 50*time.Millisecond)
	}
	t.Fatal("log lost across restart")
}

func cmds(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = string(e.Cmd)
	}
	return out
}
