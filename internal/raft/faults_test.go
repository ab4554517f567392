package raft

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lossy is what the armed runs put on every link: one message in twenty
// lost, one in twenty doubled, and each free to overtake whatever was
// sent up to three latencies before it.
var lossy = LinkFaults{Loss: 0.05, Dup: 0.05, Reorder: 3 * testLatency}

// TestSuitesUnderLinkFaults runs the quick, pipeline and lease suites'
// schedules once more over lossy links. Raft promises safety "under all
// non-Byzantine conditions, including network delays, partitions, and
// packet loss, duplication, and reordering", so every safety check runs
// as is; whatever needs progress is asserted after the links heal.
//
// TestQuickPipelineEquivalence is not here: its model is the proposal
// sequence, which presumes no accepted proposal is ever lost, and an
// election that loss provokes may lose one legitimately.
func TestSuitesUnderLinkFaults(t *testing.T) {
	t.Run("CommittedPrefixAgreement", func(t *testing.T) { quickCommittedPrefixAgreement(t, lossy) })
	t.Run("LeaderAppendOnly", func(t *testing.T) { quickLeaderAppendOnly(t, lossy) })
	t.Run("VotesArePersisted", func(t *testing.T) { quickVotesArePersisted(t, lossy) })
	t.Run("AppliesDeliveredInOrder", func(t *testing.T) { appliesDeliveredInOrder(t, lossy) })
	t.Run("SnapshotStreamsInChunks", func(t *testing.T) { snapshotStreamsInChunks(t, lossy) })
	t.Run("ReadIndexCoversAckedWrites", func(t *testing.T) { readIndexCoversAckedWrites(t, lossy) })
	t.Run("IdleCadenceKeepsLeader", func(t *testing.T) { idleCadenceKeepsLeader(t, lossy) })
}

// idleCadenceKeepsLeader: the idle cadence is an agreement made of
// messages, and a lost, doubled or overtaken one must never leave a
// follower on a short timeout under a leader on the long interval — the
// one disagreement that deposes a live leader. The leader slows down only
// when every follower accepted the same round's offer, a missing ack sends
// the next round out without one, and an append older than one already
// seen leaves the timer alone; so across at least twenty idle rounds on
// lossy links nobody stands for election, while the cadence keeps falling
// back and recovering.
func idleCadenceKeepsLeader(t *testing.T, faults LinkFaults) {
	c, clk, l := idleCluster(t, 3)
	terms := func() [3]uint64 {
		var out [3]uint64
		for _, id := range c.IDs() {
			out[id] = c.Node(id).Term()
		}
		return out
	}
	want := terms()
	c.Transport().SetFaults(faults)
	start, rounds := l.ReplicationStats().IdleRounds, roundsOf(l)
	slow, fast := 0, 0
	for end := clk.Now().Add(time.Minute); l.ReplicationStats().IdleRounds-start < 40 && clk.Now().Before(end); {
		nextRound(t, clk, l)
		if onIdle(l) {
			slow++
		} else {
			fast++
		}
		if got := terms(); got != want || c.Leader() != l {
			t.Fatalf("%v into the lossy spell: terms %v (were %v), leader %v", clk.Now().Sub(end.Add(-time.Minute)), got, want, c.Leader())
		}
	}
	c.Transport().SetFaults(LinkFaults{})
	if slow < 20 {
		t.Fatalf("only %d rounds on the idle cadence (and %d on the fast one): not the run this test is about", slow, fast)
	}
	if fast == 0 {
		t.Fatalf("%d rounds and the cadence never fell back: the links lost nothing", roundsOf(l)-rounds)
	}
	t.Logf("%d rounds on the idle cadence, %d on the fast one, no election", slow, fast)
}

// readIndexCoversAckedWrites is the lease tests' safety half as one
// property: whichever node answers a ReadIndex — by lease, by a shared
// round, or as a leader that has in fact been deposed — the index covers
// every write acknowledged before the call began. The leader is cut off
// and healed while writers and readers run, so leases expire, rounds fail
// over and a stale leader keeps being asked.
func readIndexCoversAckedWrites(t *testing.T, faults LinkFaults) {
	c, clk := newTestCluster(t, 3)
	if c.WaitLeader(5*time.Second) == nil {
		t.Fatal("no leader")
	}
	c.Transport().SetFaults(faults)

	var acked atomic.Uint64 // highest index a leader reported committed
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			l := c.Leader()
			if l == nil {
				clk.Sleep(10 * time.Millisecond)
				continue
			}
			idx, term, err := l.Propose([]byte{byte(i)})
			if err != nil {
				continue
			}
			for deadline := clk.Now().Add(300 * time.Millisecond); clk.Now().Before(deadline) && !stop.Load(); clk.Sleep(2 * time.Millisecond) {
				// Committed in the term it was proposed in: this very
				// entry, not a successor's at the same index.
				if l.CommitIndex() >= idx && l.Term() == term {
					for old := acked.Load(); idx > old && !acked.CompareAndSwap(old, idx); old = acked.Load() {
					}
					break
				}
			}
		}
	}()
	var served atomic.Int64
	for _, id := range c.IDs() {
		wg.Add(1)
		go func(id int) { // one reader per node, stale leaders included
			defer wg.Done()
			for !stop.Load() {
				n := c.Node(id)
				floor := acked.Load()
				idx, err := n.ReadIndex(100 * time.Millisecond)
				if err == nil {
					served.Add(1)
					if idx < floor {
						stop.Store(true)
						t.Errorf("node %d served read index %d after a write at %d was acknowledged", id, idx, floor)
					}
				}
				clk.Sleep(3 * time.Millisecond)
			}
		}(id)
	}
	for round := 0; round < 2 && !stop.Load(); round++ {
		clk.Sleep(200 * time.Millisecond)
		if l := c.Leader(); l != nil {
			c.Transport().Partition(l.ID())
			clk.Sleep(400 * time.Millisecond) // a successor is elected and commits
			c.Transport().Heal(l.ID())
		}
	}
	c.Transport().SetFaults(LinkFaults{})
	clk.Sleep(500 * time.Millisecond)
	before := served.Load()
	clk.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if acked.Load() == 0 {
		t.Fatal("no write was ever acknowledged")
	}
	if served.Load() == before {
		t.Fatal("no read was served after the links healed")
	}
}

// SetFaults arms f on every link; the zero LinkFaults heals them all.
func (t *Transport) SetFaults(f LinkFaults) {
	for k := range t.links {
		t.SetLinkFaults(k.from, k.to, f)
	}
}
