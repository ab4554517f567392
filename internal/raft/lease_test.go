package raft

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// The tests in this file pin the quorum-amortized read path: lease
// reads must cost zero confirmation rounds while the check-quorum
// lease is live, coalescing must resolve many concurrent reads per
// round, and — the safety half — step-down and clock skew beyond the
// drift bound must kill the lease and push reads back to full rounds
// rather than let a stale deadline serve stale data. The unsafe-mode
// companion proves the drift bound is load-bearing: with the defenses
// removed, the stale read actually happens.

// warmLease returns the leader with its lease armed. It used to wait out
// 200 ms of silence for "several heartbeat rounds"; a silent cluster is
// now on the idle cadence, where rounds are further apart than the lease
// is long, so the lease is established the way a client does it: one read
// that pays a confirmation round, which every later read inside
// ElectionTimeoutMin - MaxClockDrift of it rides on.
func warmLease(t *testing.T, c *Cluster) *Node {
	t.Helper()
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	if _, err := l.ReadIndex(time.Second); err != nil {
		t.Fatalf("warming read: %v", err)
	}
	return l
}

// warmLeaseOn is warmLease on a manual clock.
func warmLeaseOn(t *testing.T, c *Cluster, clk *clock.Sim) *Node {
	t.Helper()
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader")
	}
	if _, err := readIndexOn(t, clk, l, time.Second); err != nil {
		t.Fatalf("warming read: %v", err)
	}
	return l
}

// readIndexOn is l.ReadIndex(timeout) on a manual clock: the call runs on
// its own goroutine while this one steps the clock until it returns.
func readIndexOn(t *testing.T, clk *clock.Sim, l *Node, timeout time.Duration) (uint64, error) {
	t.Helper()
	type answer struct {
		idx uint64
		err error
	}
	done := make(chan answer, 1)
	go func() {
		idx, err := l.ReadIndex(timeout)
		done <- answer{idx, err}
	}()
	for {
		clocktest.Run(clk, 0) // the call gets as far as it can in this instant
		select {
		case a := <-done:
			return a.idx, a.err
		default:
			step(t, clk)
		}
	}
}

// TestLeaseReadsSkipRounds: with the lease armed by one confirmed round
// (warmLease; it was "the steady heartbeat cadence" while an idle cluster
// still had one), back-to-back ReadIndex calls are answered from
// commitIndex with zero confirmation rounds.
func TestLeaseReadsSkipRounds(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c)

	before := c.ReadStats()
	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := l.ReadIndex(time.Second); err != nil {
			t.Fatalf("lease read %d: %v", i, err)
		}
	}
	after := c.ReadStats()
	if got := after.LeaseReads - before.LeaseReads; got != reads {
		t.Fatalf("lease served %d of %d reads", got, reads)
	}
	if got := after.Rounds - before.Rounds; got != 0 {
		t.Fatalf("lease-mode reads launched %d confirmation rounds, want 0", got)
	}
}

// noLease leaves the check-quorum lease no length: a drift bound as long
// as the shortest election timeout makes every read pay a confirmation
// round.
func noLease(cfg *Config) { cfg.MaxClockDrift = cfg.ElectionTimeoutMin }

// TestLeaseDisabledPaysRounds: with a zero-length lease every read pays a
// confirmation round, and a sequential read has nobody to share it with,
// so exactly one. On a manual clock, so a kernel time slice cannot cost a
// round its acks.
func TestLeaseDisabledPaysRounds(t *testing.T) {
	c, clk := newManualCluster(t, 3, noLease)
	clocktest.Run(clk, time.Second)
	proposeOK(t, c, manual{clk}, "w0")
	waitCommitted(t, c, manual{clk}, 1, 10*time.Second)
	l := warmLeaseOn(t, c, clk)

	before := c.ReadStats()
	const reads = 5
	for i := 0; i < reads; i++ {
		if _, err := readIndexOn(t, clk, l, time.Second); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	after := c.ReadStats()
	if got := after.LeaseReads - before.LeaseReads; got != 0 {
		t.Fatalf("a zero-length lease served %d reads", got)
	}
	if got := after.Rounds - before.Rounds; got != reads {
		t.Fatalf("sequential reads cost %d rounds, want %d", got, reads)
	}
}

// TestCoalescedReadsShareRounds: with a zero-length lease, concurrent
// ReadIndex calls join shared confirmation rounds — one in-flight round
// plus one queued — instead of launching one each.
func TestCoalescedReadsShareRounds(t *testing.T) {
	c, clk := newTestClusterCfg(t, 3, noLease)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c)

	before := c.ReadStats()
	const readers = 32
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.ReadIndex(5 * time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("coalesced read: %v", err)
		}
	}
	after := c.ReadStats()
	if got := after.RoundReads - before.RoundReads; got != readers {
		t.Fatalf("rounds resolved %d reads, want %d", got, readers)
	}
	rounds := after.Rounds - before.Rounds
	if rounds == 0 || rounds > readers/4 {
		t.Fatalf("%d concurrent reads cost %d rounds, want amortization (1..%d)",
			readers, rounds, readers/4)
	}
}

// TestStepDownMidLeaseFailsPendingReads: a deposed leader must fail
// reads pending on its confirmation round with ErrNotLeader — never
// resolve them from its stale commit index.
func TestStepDownMidLeaseFailsPendingReads(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c)

	c.Transport().Partition(l.ID())
	// Let the lease expire (its bound is under ElectionTimeoutMin) and
	// the majority elect a successor, so the stale leader's next read
	// starts a full round that can never confirm. The followers may have
	// accepted the idle cadence before the cut, and would then wait up to
	// idleFactor × ElectionTimeoutMax before suspecting anything; a client
	// that misses the leader wakes them, and so does this test. What is
	// asserted about the deposed leader's pending read is unchanged.
	for _, id := range c.IDs() {
		if id != l.ID() {
			c.Node(id).Wake()
		}
	}
	clk.Sleep(400 * time.Millisecond)

	type res struct {
		idx uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		idx, err := l.ReadIndex(10 * time.Second)
		done <- res{idx, err}
	}()
	// Give the round time to register as pending, then heal: the stale
	// leader hears the successor's higher term and steps down with the
	// read still in flight.
	clk.Sleep(100 * time.Millisecond)
	c.Transport().Heal(l.ID())

	r := <-done
	if r.err == nil {
		t.Fatalf("pending read on deposed leader resolved to %d", r.idx)
	}
	if !errors.Is(r.err, ErrNotLeader) {
		t.Fatalf("pending read failed with %v, want ErrNotLeader", r.err)
	}
}

// TestClockSkewBreaksLease: a leader whose clock steps beyond the
// drift bound must lose its lease (the follower clock echoes catch the
// skew) and keep serving reads only through full confirmation rounds —
// and once partitioned it must not answer at all, while the majority's
// successor commits past it. On a manual clock, so a kernel time slice
// cannot age the lease or a round.
func TestClockSkewBreaksLease(t *testing.T) {
	c, clk := newManualCluster(t, 3)
	clocktest.Run(clk, time.Second)
	proposeOK(t, c, manual{clk}, "w0")
	waitCommitted(t, c, manual{clk}, 1, 10*time.Second)
	l := warmLeaseOn(t, c, clk)

	// Prove the lease is live before the fault.
	pre := c.ReadStats()
	if _, err := readIndexOn(t, clk, l, time.Second); err != nil {
		t.Fatalf("pre-skew read: %v", err)
	}
	if c.ReadStats().LeaseReads == pre.LeaseReads {
		t.Fatal("lease not armed before the skew fault")
	}

	// Step the leader's clock 10s backward — far beyond the 20ms drift
	// bound — while it is still connected. The followers' echoes that
	// catch it ride on heartbeat acks, and the next round is at most one
	// idle interval away (it was one fast interval; the sleep grew with it).
	c.SetClockSkew(l.ID(), -10*time.Second)
	clocktest.Run(clk, idleFactor*DefaultConfig(nil).HeartbeatInterval+100*time.Millisecond)
	if c.ReadStats().LeaseExpiries == pre.LeaseExpiries {
		t.Fatal("skew beyond the drift bound did not invalidate the lease")
	}

	// Connected, reads still answer — via full rounds, not the lease.
	mid := c.ReadStats()
	if _, err := readIndexOn(t, clk, l, time.Second); err != nil {
		t.Fatalf("post-skew connected read: %v", err)
	}
	post := c.ReadStats()
	if post.LeaseReads != mid.LeaseReads {
		t.Fatal("skewed leader served a lease read")
	}
	if post.Rounds == mid.Rounds {
		t.Fatal("skewed leader's read cost no confirmation round")
	}

	// Partition the skewed leader; the majority elects and commits.
	c.Transport().Partition(l.ID())
	successor := waitSuccessor(t, c, manual{clk}, l.ID())
	idx, _, err := successor.Propose([]byte("w1"))
	if err != nil {
		t.Fatalf("successor propose: %v", err)
	}
	waitCommitIndex(t, successor, manual{clk}, idx)

	// The stale, skewed leader must refuse every read.
	for i := 0; i < 3; i++ {
		if got, err := readIndexOn(t, clk, l, time.Second); err == nil {
			t.Fatalf("skewed stale leader served read index %d (successor committed %d)", got, idx)
		}
	}
	c.Transport().Heal(l.ID())
	c.SetClockSkew(l.ID(), 0)
}

// TestClockSkewUnsafeModeServesStale is the companion proof that the
// drift bound is load-bearing: with MaxClockDrift < 0 every defense is
// off, and the same backward clock step turns the lease into a zombie —
// the partitioned stale leader KEEPS serving reads from its old commit
// index after the successor has committed past it. This stale read is
// exactly what the bound exists to prevent; if this test starts
// failing, the unsafe escape hatch has grown a defense and the safe
// test above is no longer demonstrating anything.
func TestClockSkewUnsafeModeServesStale(t *testing.T) {
	c, clk := newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.MaxClockDrift = -1 // UNSAFE: no slack, no step checks, no echoes
	})
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c)

	// Partition first, then step the clock back: no later quorum round
	// can overwrite the lease with post-step timestamps, so the grant's
	// deadline lives 10s in the leader's future.
	c.Transport().Partition(l.ID())
	c.SetClockSkew(l.ID(), -10*time.Second)

	successor := waitSuccessor(t, c, clk, l.ID())
	idx, _, err := successor.Propose([]byte("w1"))
	if err != nil {
		t.Fatalf("successor propose: %v", err)
	}
	waitCommitIndex(t, successor, clk, idx)

	got, err := l.ReadIndex(time.Second)
	if err != nil {
		t.Fatalf("unsafe mode: zombie lease did not serve (%v) — the drift defenses leaked into MaxClockDrift < 0", err)
	}
	if got >= idx {
		t.Fatalf("unsafe read index %d unexpectedly covers the successor's commit %d", got, idx)
	}
	c.Transport().Heal(l.ID())
	c.SetClockSkew(l.ID(), 0)
}

// waitSuccessor blocks until some node other than excluded leads.
func waitSuccessor(t *testing.T, c *Cluster, clk sleeper, excluded int) *Node {
	t.Helper()
	deadline := clk.Now().Add(15 * time.Second)
	for clk.Now().Before(deadline) {
		for _, id := range c.IDs() {
			if id == excluded {
				continue
			}
			if n := c.Node(id); n != nil && n.State() == Leader {
				return n
			}
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Fatal("majority did not elect a successor")
	return nil
}

// waitCommitIndex blocks until n's commit index reaches idx.
func waitCommitIndex(t *testing.T, n *Node, clk sleeper, idx uint64) {
	t.Helper()
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if n.CommitIndex() >= idx {
			return
		}
		clk.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("commit index never reached %d", idx)
}

// leaseServes asks l's lease for a read index without falling back to a
// confirmation round (which would block on a manual clock).
func leaseServes(l *Node) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.core.state != Leader {
		return 0, false
	}
	l.core.now = l.cfg.Clock.Now()
	return l.core.leaseRead()
}

// TestLeaseSurvivesOneCutLink: the lease says "no other node can have won
// an election", and one cut link used to be enough to make that false —
// the follower cut off from the leader times out and asks the other one
// for its vote, and a follower that grants it while it still hears the
// leader every round elects a second leader under a live lease (at the
// parent of this test: node A leads term 2 and commits index 2 while the
// old leader, still Leader in term 1, answers reads from its lease with
// index 1). A follower now refuses its vote within ElectionTimeoutMin of
// hearing its leader (Raft thesis §4.2.3, §6.4.1), so the cut-off node
// campaigns for as long as it likes and the lease holds. Every instant of
// three virtual seconds is checked: whenever the lease answers, nobody
// leads a later term.
func TestLeaseSurvivesOneCutLink(t *testing.T) {
	c, clk := newManualCluster(t, 3)
	clocktest.Run(clk, time.Second)
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader")
	}
	if _, _, err := l.Propose([]byte("w0")); err != nil {
		t.Fatal(err)
	}
	clocktest.Run(clk, 5*time.Millisecond) // committed, and the round's acks armed the lease
	if _, ok := leaseServes(l); !ok {
		t.Fatal("lease not armed by a quorum-acked round")
	}
	var cut int
	for _, id := range c.IDs() {
		if id != l.ID() {
			cut = id
			break
		}
	}
	c.Transport().SetLinkFaults(l.ID(), cut, LinkFaults{Blocked: true})
	c.Transport().SetLinkFaults(cut, l.ID(), LinkFaults{Blocked: true})

	served := 0
	for end := clk.Now().Add(3 * time.Second); clk.Now().Before(end); {
		step(t, clk)
		idx, ok := leaseServes(l)
		if !ok {
			continue
		}
		served++
		term := l.Term()
		for _, id := range c.IDs() {
			if st, tm := c.Node(id).Status(); id != l.ID() && st == Leader && tm > term {
				t.Fatalf("%v after the cut node %d answers reads from its lease (index %d, term %d) while node %d leads term %d",
					clk.Now().Sub(end.Add(-3*time.Second)), l.ID(), idx, term, id, tm)
			}
		}
	}
	if served == 0 {
		t.Fatal("the lease never answered: nothing was checked")
	}
	if c.Node(cut).Term() <= l.Term() {
		t.Fatal("the cut-off follower never stood for election: the scenario did not happen")
	}
	// The leader and the follower that hears it are a quorum: still live.
	idx, _, err := l.Propose([]byte("w1"))
	if err != nil {
		t.Fatalf("propose on the leader that kept its lease: %v", err)
	}
	clocktest.Run(clk, 5*time.Millisecond)
	if l.CommitIndex() < idx {
		t.Fatalf("commit index %d after proposing %d with a quorum connected", l.CommitIndex(), idx)
	}
}

// TestCrashedLeaderReplacedInOneTimeout is the vote refusal's liveness
// half: it must not delay the election that should happen. Both followers
// last heard the crashed leader in the same instant, so by the time either
// of them has timed out (at least ElectionTimeoutMin later) the other's
// refusal window has closed, and the first candidate wins the first term.
func TestCrashedLeaderReplacedInOneTimeout(t *testing.T) {
	c, clk := newManualCluster(t, 3)
	clocktest.Run(clk, time.Second)
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader")
	}
	term := l.Term()
	// A proposal's round puts both followers on a fresh normal timeout,
	// whatever cadence they were on.
	if _, _, err := l.Propose([]byte("w0")); err != nil {
		t.Fatal(err)
	}
	clocktest.Run(clk, time.Millisecond)
	crashed := clk.Now()
	c.Crash(l.ID())
	cfg := DefaultConfig(nil)
	nl := awaitLeader(t, c, clk, l.ID(), time.Second)
	if nl == nil {
		t.Fatal("no leader within a second of the crash")
	}
	if got := clk.Now().Sub(crashed); got > cfg.ElectionTimeoutMax+2*time.Millisecond {
		t.Fatalf("new leader %v after the crash, want within ElectionTimeoutMax + a vote round trip", got)
	}
	if got := nl.Term(); got != term+1 {
		t.Fatalf("new leader in term %d, want %d: the first election did not succeed", got, term+1)
	}
}
