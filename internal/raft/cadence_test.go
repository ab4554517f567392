package raft

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/metrics"
)

// The tests in this file pin the cadence protocol (cadence.go) on a manual
// clock that moves only while every goroutine is blocked (clocktest), so
// an instant in them is exact: a round is sent at the tick, arrives one
// link latency later, and its ack one more.

const linkLatency = time.Millisecond // what NewCluster gives every link

// newManualCluster boots n nodes on a clock only clocktest.Run moves.
func newManualCluster(t *testing.T, n int, mods ...func(*Config)) (*Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewManual()
	cfg := DefaultConfig(clk)
	for _, mod := range mods {
		mod(&cfg)
	}
	c := NewCluster(n, cfg)
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

// idleCluster runs a fresh cluster until its leader is on the idle
// cadence, which an undisturbed one reaches two rounds after the election.
func idleCluster(t *testing.T, n int) (*Cluster, *clock.Sim, *Node) {
	t.Helper()
	c, clk := newManualCluster(t, n)
	clocktest.Run(clk, time.Second)
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader after one second")
	}
	if !onIdle(l) {
		t.Fatal("an undisturbed leader is not on the idle cadence after one second")
	}
	return c, clk, l
}

func onIdle(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.idle
}

func roundsOf(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.hbSeq
}

// followersOf returns the live nodes other than l.
func followersOf(c *Cluster, l *Node) []*Node {
	var out []*Node
	for _, id := range c.IDs() {
		if n := c.Node(id); n != nil && id != l.ID() {
			out = append(out, n)
		}
	}
	return out
}

// step moves the clock to its next pending deadline and lets everything
// that instant wakes run as far as it can.
func step(t *testing.T, clk *clock.Sim) {
	t.Helper()
	next, ok := clk.NextDeadline()
	if !ok {
		t.Fatal("nothing is pending on the clock")
	}
	clocktest.Run(clk, next.Sub(clk.Now()))
}

// nextRound steps to the instant l starts its next round and returns it.
func nextRound(t *testing.T, clk *clock.Sim, l *Node) time.Time {
	t.Helper()
	for seq := roundsOf(l); roundsOf(l) == seq; {
		step(t, clk)
	}
	return clk.Now()
}

// awaitLeader steps until a node of c other than not leads, at most d.
func awaitLeader(t *testing.T, c *Cluster, clk *clock.Sim, not int, d time.Duration) *Node {
	t.Helper()
	for end := clk.Now().Add(d); !clk.Now().After(end); step(t, clk) {
		if l := c.Leader(); l != nil && l.ID() != not {
			return l
		}
	}
	return nil
}

// TestIdleCadenceAgreed: a settled cluster's rounds are exactly
// idleFactor × HeartbeatInterval apart, every one of them repeats the
// offer, and both followers are on the idle cadence with it.
func TestIdleCadenceAgreed(t *testing.T) {
	c, clk, l := idleCluster(t, 3)
	interval := DefaultConfig(nil).HeartbeatInterval
	before := l.ReplicationStats()
	last := nextRound(t, clk, l)
	for i := 0; i < 4; i++ {
		at := nextRound(t, clk, l)
		if got := at.Sub(last); got != idleFactor*interval {
			t.Fatalf("round %d came %v after the one before it, want exactly %v", i, got, idleFactor*interval)
		}
		last = at
		clocktest.Run(clk, 2*linkLatency) // the round arrives, the acks come back
		for _, f := range followersOf(c, l) {
			if !onIdle(f) {
				t.Fatalf("follower %d is on the fast cadence in an idle spell", f.ID())
			}
		}
	}
	after := l.ReplicationStats()
	if got := after.IdleRounds - before.IdleRounds; got != 5 {
		t.Fatalf("%d of 5 settled rounds carried the offer", got)
	}
	if got := after.AppendsSent - before.AppendsSent; got != 10 {
		t.Fatalf("5 idle rounds sent %d appends, want 10", got)
	}
}

// TestFirstIdleIntervalStartsAtAgreement: the leader slows down when the
// last follower's acceptance arrives, not before — its next round is one
// idle interval after that instant.
func TestFirstIdleIntervalStartsAtAgreement(t *testing.T) {
	_, clk, l := idleCluster(t, 3)
	interval := DefaultConfig(nil).HeartbeatInterval
	l.Wake() // a fast round now; the tick after it offers again
	if onIdle(l) {
		t.Fatal("a woken leader is still on the idle cadence")
	}
	woke := clk.Now()
	offer := nextRound(t, clk, l)
	if got := offer.Sub(woke); got != interval {
		t.Fatalf("the round after a wake came %v later, want one fast interval %v", got, interval)
	}
	if onIdle(l) {
		t.Fatal("the leader slowed down before anyone accepted its offer")
	}
	clocktest.Run(clk, 2*linkLatency)
	if !onIdle(l) {
		t.Fatal("both followers accepted and the leader is still on the fast cadence")
	}
	if got := nextRound(t, clk, l).Sub(offer); got != 2*linkLatency+idleFactor*interval {
		t.Fatalf("first idle round came %v after the offer, want %v", got, 2*linkLatency+idleFactor*interval)
	}
}

// TestProposeEndsIdleSpell: a proposal in an idle spell leaves in the
// instant it is made, both followers are back on normal timeouts one link
// delay later, and the spell resumes once the entry is committed
// everywhere.
func TestProposeEndsIdleSpell(t *testing.T) {
	c, clk, l := idleCluster(t, 3)
	clocktest.Run(clk, 120*time.Millisecond) // somewhere inside an idle interval
	before := l.ReplicationStats()
	term := l.Term()
	if _, _, err := l.Propose([]byte("w")); err != nil {
		t.Fatal(err)
	}
	if got := l.ReplicationStats().EntriesSent - before.EntriesSent; got != 2 {
		t.Fatalf("%d entries left with the proposal, want one to each follower", got)
	}
	if onIdle(l) {
		t.Fatal("leader still on the idle cadence after a proposal")
	}
	clocktest.Run(clk, linkLatency)
	for _, f := range followersOf(c, l) {
		if onIdle(f) {
			t.Fatalf("follower %d still on the idle cadence one link delay after a proposal", f.ID())
		}
	}
	clocktest.Run(clk, 200*time.Millisecond)
	if !onIdle(l) {
		t.Fatal("the spell did not resume after the entry committed")
	}
	for _, f := range followersOf(c, l) {
		if f.CommitIndex() != 1 || !onIdle(f) {
			t.Fatalf("follower %d: commit index %d, idle %v", f.ID(), f.CommitIndex(), onIdle(f))
		}
	}
	if l.Term() != term {
		t.Fatalf("term moved %d → %d", term, l.Term())
	}
}

// TestDeadFollowerKeepsFastCadence: with one follower gone the leader
// never offers the idle cadence — at most the one round that finds out —
// and the live follower keeps a normal timeout.
func TestDeadFollowerKeepsFastCadence(t *testing.T) {
	c, clk, l := idleCluster(t, 3)
	fs := followersOf(c, l)
	c.Crash(fs[0].ID())
	interval := DefaultConfig(nil).HeartbeatInterval
	clocktest.Run(clk, 2*idleFactor*interval) // the round that goes unanswered, and the one after
	before := l.ReplicationStats().IdleRounds
	seq := roundsOf(l)
	for i := 0; i < 40; i++ {
		clocktest.Run(clk, interval)
		if onIdle(l) || onIdle(fs[1]) {
			t.Fatalf("idle cadence with a dead member: leader %v, live follower %v", onIdle(l), onIdle(fs[1]))
		}
	}
	if got := l.ReplicationStats().IdleRounds - before; got != 0 {
		t.Fatalf("leader offered the idle cadence %d times with a dead member", got)
	}
	if got := roundsOf(l) - seq; got != 40 {
		t.Fatalf("%d rounds in 40 fast intervals", got)
	}
}

// TestFollowerRestartMidSpell: a follower that crashes and comes back
// inside one idle interval boots with a normal election timeout, shorter
// than the wait for the leader's next round. It says so as it starts, the
// leader answers with a round at once, and no term is spent.
func TestFollowerRestartMidSpell(t *testing.T) {
	c, clk, l := idleCluster(t, 3)
	term := l.Term()
	nextRound(t, clk, l)
	clocktest.Run(clk, 5*time.Millisecond)
	f := followersOf(c, l)[0].ID()
	c.Crash(f)
	clocktest.Run(clk, 50*time.Millisecond)
	c.Restart(f)
	clocktest.Run(clk, 2*linkLatency)
	if onIdle(l) {
		t.Fatal("the leader did not answer a starting follower with a fast round")
	}
	clocktest.Run(clk, 3*time.Second)
	if got := c.Leader(); got != l || l.Term() != term {
		t.Fatalf("restart mid-spell cost an election: leader %v term %d, was node %d term %d", got, l.Term(), l.ID(), term)
	}
	if !onIdle(l) {
		t.Fatal("the spell did not resume with the follower back")
	}
}

// TestIdleLeaderCrashFailover states the cost and its remedy: a leader
// that dies in an idle spell is replaced within idleFactor ×
// ElectionTimeoutMax if nobody asks the cluster anything, and within one
// ordinary ElectionTimeoutMax of the first Wake if somebody does.
func TestIdleLeaderCrashFailover(t *testing.T) {
	cfg := DefaultConfig(nil)
	voteTrip := 2 * linkLatency
	t.Run("OnDemand", func(t *testing.T) {
		c, clk, l := idleCluster(t, 3)
		clocktest.Run(clk, 120*time.Millisecond)
		c.Crash(l.ID())
		clocktest.Run(clk, 30*time.Millisecond) // nobody has noticed
		woken := clk.Now()
		fs := followersOf(c, l)
		fs[0].Wake()
		clocktest.Run(clk, linkLatency)
		if onIdle(fs[0]) || onIdle(fs[1]) {
			t.Fatalf("after a wake and one link delay: follower idle flags %v %v", onIdle(fs[0]), onIdle(fs[1]))
		}
		nl := awaitLeader(t, c, clk, l.ID(), time.Second)
		if nl == nil {
			t.Fatal("no leader within a second of the wake")
		}
		if got := clk.Now().Sub(woken); got > cfg.ElectionTimeoutMax+linkLatency+voteTrip {
			t.Fatalf("new leader %v after the wake, want within ElectionTimeoutMax + the wake's delay + a vote round trip", got)
		}
	})
	t.Run("Unprompted", func(t *testing.T) {
		c, clk, l := idleCluster(t, 3)
		nextRound(t, clk, l)
		clocktest.Run(clk, 2*linkLatency) // both followers re-armed one link delay ago
		crashed := clk.Now()
		c.Crash(l.ID())
		nl := awaitLeader(t, c, clk, l.ID(), 10*time.Second)
		if nl == nil {
			t.Fatal("no leader within ten seconds")
		}
		got := clk.Now().Sub(crashed)
		if lo := idleFactor*cfg.ElectionTimeoutMin - linkLatency; got < lo {
			t.Fatalf("new leader after %v: the followers' idle timeouts were under %v", got, lo)
		}
		if hi := idleFactor*cfg.ElectionTimeoutMax + voteTrip; got > hi {
			t.Fatalf("new leader after %v, want within idleFactor × ElectionTimeoutMax + a vote round trip = %v", got, hi)
		}
	})
}

// TestSingleNodeIdles: a cluster of one has nobody to ask and slows down
// by itself; a proposal still commits at once.
func TestSingleNodeIdles(t *testing.T) {
	_, clk, l := idleCluster(t, 1)
	interval := DefaultConfig(nil).HeartbeatInterval
	last := nextRound(t, clk, l)
	if got := nextRound(t, clk, l).Sub(last); got != idleFactor*interval {
		t.Fatalf("single-node rounds %v apart, want %v", got, idleFactor*interval)
	}
	idx, _, err := l.Propose([]byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	if l.CommitIndex() != idx {
		t.Fatalf("commit index %d after proposing %d on a cluster of one", l.CommitIndex(), idx)
	}
}

// TestCadenceFlipAllocs: going from the idle cadence to the fast one and
// back — a wake, the round it starts, the tick that offers again, the two
// acceptances — resets one ticker's period and re-arms two election
// timers in place, writes two peers' records and bumps two series that
// exist (raft_wakes, raft_idle_rounds): it allocates nothing. (A prototype that re-created a ticker and an
// acknowledgement map per flip read +1–3 % allocs_per_op on the fleet
// workloads.) On a manual clock, so every flip is the whole cycle however
// the kernel slices the run. Not parallel: MemStats counts the whole
// process.
func TestCadenceFlipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("object counts are exact only without -race")
	}
	c, clk, l := idleCluster(t, 3)
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	interval := DefaultConfig(nil).HeartbeatInterval
	flip := func() {
		l.Wake()
		clocktest.Run(clk, 2*interval) // the offer after the wake, and its acceptances
	}
	for i := 0; i < 20; i++ { // pools, the lease's round list and the event heap at size
		flip()
	}
	const flips = 200
	label := fmt.Sprintf("node%d", l.ID())
	wakes, rounds := reg.Counter("raft_wakes", label, "client"), reg.Counter("raft_idle_rounds", label)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < flips; i++ {
		flip()
	}
	runtime.ReadMemStats(&after)
	if got := reg.Counter("raft_wakes", label, "client") - wakes; got < flips*9/10 {
		t.Fatalf("only %v of %d wakes found the leader idle: the cycle under test did not happen", got, flips)
	}
	if got := reg.Counter("raft_idle_rounds", label) - rounds; got < flips*9/10 {
		t.Fatalf("only %v idle offers in %d flips", got, flips)
	}
	// Floored, like testing.AllocsPerRun.
	objects := after.Mallocs - before.Mallocs
	if objects/flips != 0 {
		t.Errorf("%d objects in %d fast→idle→fast cycles, want 0 per cycle", objects, flips)
	} else {
		t.Logf("%d objects in %d fast→idle→fast cycles", objects, flips)
	}
}
