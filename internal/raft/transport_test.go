package raft

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

const testLatency = time.Millisecond

// testNet is a transport on a manual clock with a plain channel attached
// as each node's inbox.
type testNet struct {
	t     *testing.T
	clk   *clock.Sim
	trans *Transport
	inbox map[int]chan message
}

func newTestNet(t *testing.T, seed int64, inboxCap int) *testNet {
	t.Helper()
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	ids := []int{0, 1, 2}
	n := &testNet{t: t, clk: clk, trans: NewTransport(clk, testLatency, seed, ids), inbox: map[int]chan message{}}
	for _, id := range ids {
		n.inbox[id] = make(chan message, inboxCap)
		n.trans.attach(id, n.inbox[id])
	}
	return n
}

// heartbeat is an empty append numbered seq: the test's tagged packet.
func heartbeat(seq uint64) message { return appendEntries{Term: 1, Seq: seq}.wire() }

// recv returns the next message in id's inbox. A link drains in the
// goroutine its clock event starts, so arrival trails Advance.
func (n *testNet) recv(id int) message {
	n.t.Helper()
	select {
	case m := <-n.inbox[id]:
		return m
	case <-time.After(5 * time.Second):
		n.t.Fatalf("nothing arrived at node %d", id)
		return message{}
	}
}

// recvSeqs collects the Seq of the next count arrivals at id.
func (n *testNet) recvSeqs(id, count int) []uint64 {
	n.t.Helper()
	seqs := make([]uint64, count)
	for i := range seqs {
		seqs[i] = n.recv(id).app.Seq
	}
	return seqs
}

// pumpUntil collects arrivals at id, through the one numbered last,
// advancing the clock as it goes. Messages due at several instants need
// it: a link re-arms its event from the drain goroutine, which on a
// manual clock may be after the Advance that should have fired it.
func (n *testNet) pumpUntil(id int, last uint64) []uint64 {
	n.t.Helper()
	var seqs []uint64
	for timeout := time.After(5 * time.Second); ; {
		select {
		case m := <-n.inbox[id]:
			seqs = append(seqs, m.app.Seq)
			if m.app.Seq == last {
				return seqs
			}
		case <-timeout:
			n.t.Fatalf("message %d never arrived at node %d; got %v", last, id, seqs)
		default:
			n.clk.Advance(testLatency / 4)
			runtime.Gosched()
		}
	}
}

// total is the number of messages discarded for any cause.
func total(d Drops) int {
	return d.Detached + d.Partitioned + d.Blocked + d.Lost + d.Overflow
}

// awaitDrops waits until the transport has discarded want messages.
func (n *testNet) awaitDrops(want int) Drops {
	n.t.Helper()
	for timeout := time.After(5 * time.Second); ; runtime.Gosched() {
		d := n.trans.Dropped()
		if total(d) == want {
			return d
		}
		select {
		case <-timeout:
			n.t.Fatalf("dropped %+v, want %d in total", d, want)
		default:
		}
		if total(d) > want {
			n.t.Fatalf("dropped %+v, want %d in total", d, want)
		}
	}
}

func (n *testNet) expectEmpty(id int) {
	n.t.Helper()
	select {
	case m := <-n.inbox[id]:
		n.t.Fatalf("node %d received %+v, want nothing", id, m)
	default:
	}
}

func upTo(count int) []uint64 {
	seqs := make([]uint64, count)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	return seqs
}

// Messages sent on one link in one instant arrive in the order sent (the
// goroutine-per-message transport delivered about a third of them
// swapped), and on their own link: 0 → 2 traffic does not mix in.
func TestLinkDeliversInSendOrder(t *testing.T) {
	n := newTestNet(t, 1, 256)
	const count = 100
	for _, seq := range upTo(count) {
		n.trans.send(0, 1, heartbeat(seq))
		n.trans.send(0, 2, heartbeat(1000+seq))
	}
	if pending := n.clk.PendingEvents(); pending != 2 {
		t.Fatalf("%d clock events pending for %d messages on 2 links, want one per link", pending, 2*count)
	}
	n.clk.Advance(testLatency)
	if got := n.recvSeqs(1, count); !reflect.DeepEqual(got, upTo(count)) {
		t.Fatalf("arrival order on 0→1: %v", got)
	}
	for _, seq := range upTo(count) {
		if m := n.recv(2); m.app.Seq != 1000+seq || m.from != 0 || m.kind != msgAppendEntries {
			t.Fatalf("0→2 arrival %d: %+v", seq, m)
		}
	}
	if d := n.trans.Dropped(); total(d) != 0 {
		t.Fatalf("healthy links dropped %+v", d)
	}
}

// A message in flight when its destination crashes is gone, even if the
// destination is back (with a new inbox) before the delivery time.
func TestLinkDropsInFlightAcrossRestart(t *testing.T) {
	n := newTestNet(t, 1, 16)
	n.trans.send(0, 1, heartbeat(1))
	old := n.inbox[1]
	n.trans.detach(1)
	n.trans.send(0, 1, heartbeat(2)) // crashed destination: dropped at once
	n.inbox[1] = make(chan message, 16)
	n.trans.attach(1, n.inbox[1])
	n.trans.send(0, 1, heartbeat(3))
	n.clk.Advance(testLatency)

	if got := n.recv(1).app.Seq; got != 3 {
		t.Fatalf("restarted node received message %d, want only 3", got)
	}
	if d := n.awaitDrops(2); d.Detached != 2 {
		t.Fatalf("drops %+v, want 2 detached", d)
	}
	n.expectEmpty(1)
	select {
	case m := <-old:
		t.Fatalf("the dead incarnation's inbox received %+v", m)
	default:
	}
}

func TestLinkLossAndOverflowAreCounted(t *testing.T) {
	n := newTestNet(t, 1, 1)
	n.trans.SetLinkFaults(0, 1, LinkFaults{Loss: 1})
	n.trans.send(0, 1, heartbeat(1))
	if d := n.trans.Dropped(); d.Lost != 1 || total(d) != 1 {
		t.Fatalf("drops %+v, want 1 lost", d)
	}
	n.trans.SetLinkFaults(0, 1, LinkFaults{})
	n.trans.send(0, 1, heartbeat(2))
	n.trans.send(0, 1, heartbeat(3)) // the inbox holds one
	n.clk.Advance(testLatency)
	if d := n.awaitDrops(2); d.Overflow != 1 {
		t.Fatalf("drops %+v, want 1 overflow", d)
	}
	if got := n.recv(1).app.Seq; got != 2 {
		t.Fatalf("received %d, want 2", got)
	}
}

func TestLinkDuplication(t *testing.T) {
	n := newTestNet(t, 1, 16)
	n.trans.SetLinkFaults(0, 1, LinkFaults{Dup: 1})
	n.trans.send(0, 1, heartbeat(1))
	n.trans.send(0, 1, heartbeat(2))
	n.clk.Advance(testLatency)
	if got, want := n.recvSeqs(1, 4), []uint64{1, 1, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
}

// Extra delay moves the delivery time, and taking it away does not let
// later messages overtake the ones still crawling.
func TestLinkDelayKeepsOrder(t *testing.T) {
	n := newTestNet(t, 1, 16)
	const slow = 10 * time.Millisecond
	n.trans.SetNodeDelay(1, slow)
	n.trans.send(0, 1, heartbeat(1))
	n.trans.send(2, 1, heartbeat(7))
	n.trans.send(1, 0, heartbeat(9)) // out of the slow node: not delayed
	n.trans.SetNodeDelay(1, 0)
	n.trans.send(0, 1, heartbeat(2))

	n.clk.Advance(testLatency)
	if got := n.recv(0).app.Seq; got != 9 {
		t.Fatalf("node 0 received %d, want 9", got)
	}
	if pending := n.clk.PendingEvents(); pending != 2 {
		t.Fatalf("%d link events pending after the base latency, want 2 (0→1 and 2→1 still in flight)", pending)
	}
	n.expectEmpty(1)
	n.clk.Advance(slow)
	got := n.recvSeqs(1, 3)
	var from0 []uint64
	for _, seq := range got {
		if seq != 7 {
			from0 = append(from0, seq)
		}
	}
	if !reflect.DeepEqual(from0, []uint64{1, 2}) {
		t.Fatalf("arrivals at node 1: %v, want 1 before 2", got)
	}
}

// A slow node stays slow when the links into it are healed: its delay is
// the node's, and clearing faults is not what removes it.
func TestNodeDelaySurvivesFaultHeal(t *testing.T) {
	n := newTestNet(t, 1, 16)
	const slow = 10 * time.Millisecond
	n.trans.SetNodeDelay(1, slow)
	n.trans.SetFaults(LinkFaults{Loss: 1})
	n.trans.SetFaults(LinkFaults{})
	n.trans.SetLinkFaults(0, 1, LinkFaults{Delay: slow}) // a link's own delay adds to it
	n.trans.send(0, 1, heartbeat(1))
	n.trans.send(2, 1, heartbeat(2))

	n.clk.Advance(testLatency)
	if pending := n.clk.PendingEvents(); pending != 2 {
		t.Fatalf("%d link events pending after the base latency, want 2 (0→1 and 2→1 still in flight)", pending)
	}
	n.expectEmpty(1)
	n.clk.Advance(slow)
	if got := n.recv(1).app.Seq; got != 2 {
		t.Fatalf("node 1 received %d after its own delay, want 2 (0→1 is slower still)", got)
	}
	n.expectEmpty(1)
	n.clk.Advance(slow)
	if got := n.recv(1).app.Seq; got != 1 {
		t.Fatalf("node 1 received %d, want 1", got)
	}
	if d := n.trans.Dropped(); total(d) != 0 {
		t.Fatalf("healed links dropped %+v", d)
	}
}

// A drain that is not the firing its link is armed for — a timer Reset
// that lost the race with a firing runs it twice — delivers nothing
// early and leaves the pending firing in place.
func TestStaleDrainDeliversNothingEarly(t *testing.T) {
	n := newTestNet(t, 1, 16)
	l := n.trans.links[linkKey{0, 1}]
	n.trans.send(0, 1, heartbeat(1))
	n.trans.send(0, 1, heartbeat(2))
	l.drain()
	n.expectEmpty(1)
	if pending := n.clk.PendingEvents(); pending != 1 {
		t.Fatalf("%d clock events pending after a stale drain, want the link's one", pending)
	}
	n.clk.Advance(testLatency / 2)
	l.drain()
	n.expectEmpty(1)
	n.clk.Advance(testLatency / 2)
	if got := n.recvSeqs(1, 2); !reflect.DeepEqual(got, upTo(2)) {
		t.Fatalf("arrivals %v, want 1 then 2", got)
	}
	l.drain() // and one after the ring emptied
	n.expectEmpty(1)
	if pending := n.clk.PendingEvents(); pending != 0 {
		t.Fatalf("%d clock events pending on an empty link", pending)
	}
}

// A closed clock fires every timer at once and never advances: a link
// must hand its messages over rather than re-arm for them forever.
func TestLinkDrainsOnClosedClock(t *testing.T) {
	n := newTestNet(t, 1, 16)
	n.trans.send(0, 1, heartbeat(1))
	n.clk.Close()
	n.trans.send(0, 1, heartbeat(2))
	if got := n.recvSeqs(1, 2); !reflect.DeepEqual(got, upTo(2)) {
		t.Fatalf("arrivals %v, want 1 then 2", got)
	}
	l := n.trans.links[linkKey{0, 1}]
	for timeout := time.After(5 * time.Second); ; runtime.Gosched() {
		l.mu.Lock()
		idle := l.n == 0 && !l.armed
		l.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-timeout:
			t.Fatal("the link never went idle on a closed clock")
		default:
		}
	}
}

// A reorder window lets messages overtake each other and loses none.
func TestLinkReorder(t *testing.T) {
	const (
		count  = 64
		window = 5 * time.Millisecond
	)
	n := newTestNet(t, 1, 256)
	n.trans.SetLinkFaults(0, 1, LinkFaults{Reorder: window})
	for _, seq := range upTo(count) {
		n.trans.send(0, 1, heartbeat(seq))
	}
	n.trans.SetLinkFaults(0, 1, LinkFaults{})
	n.trans.send(0, 1, heartbeat(count+1)) // FIFO again: arrives last
	got := n.pumpUntil(1, count+1)
	got = got[:len(got)-1]
	if reflect.DeepEqual(got, upTo(count)) {
		t.Fatalf("%d messages under a reorder window arrived in send order", count)
	}
	seen := map[uint64]bool{}
	for _, seq := range got {
		seen[seq] = true
	}
	if len(seen) != count {
		t.Fatalf("%d distinct messages arrived, want %d: %v", len(seen), count, got)
	}
}

// The faults a link injects are a function of the transport's seed.
func TestLinkFaultsReproducibleFromSeed(t *testing.T) {
	run := func(seed int64) ([]uint64, Drops) {
		n := newTestNet(t, seed, 1024)
		n.trans.SetFaults(LinkFaults{Loss: 0.2, Dup: 0.2, Reorder: 3 * time.Millisecond})
		const count = 200
		for _, seq := range upTo(count) {
			n.trans.send(0, 1, heartbeat(seq))
			if seq%10 == 0 {
				n.clk.Advance(testLatency)
			}
		}
		n.trans.SetFaults(LinkFaults{})
		n.trans.send(0, 1, heartbeat(count+1)) // FIFO again: arrives last
		return n.pumpUntil(1, count+1), n.trans.Dropped()
	}
	a, dropsA := run(42)
	b, dropsB := run(42)
	c, _ := run(43)
	if !reflect.DeepEqual(a, b) || dropsA != dropsB {
		t.Fatalf("seed 42 twice:\n %v %+v\n %v %+v", a, dropsA, b, dropsB)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 42 and 43 injected the same faults")
	}
	if dropsA.Lost < 20 || dropsA.Lost > 60 || total(dropsA) != dropsA.Lost {
		t.Fatalf("drops %+v, want about 40 of 200 lost and nothing else", dropsA)
	}
	if dups := len(a) - 1 - (200 - dropsA.Lost); dups < 15 || dups > 50 {
		t.Fatalf("%d duplicates among %d survivors, want about a fifth", dups, 200-dropsA.Lost)
	}
}

func TestOneWayPartition(t *testing.T) {
	n := newTestNet(t, 1, 16)
	n.trans.SetLinkFaults(0, 1, LinkFaults{Blocked: true})
	n.trans.send(0, 1, heartbeat(1))
	n.trans.send(1, 0, heartbeat(2))
	n.trans.send(0, 2, heartbeat(3))
	n.clk.Advance(testLatency)
	if got := n.recv(0).app.Seq; got != 2 {
		t.Fatalf("node 0 received %d over the open direction, want 2", got)
	}
	if got := n.recv(2).app.Seq; got != 3 {
		t.Fatalf("node 2 received %d, want 3", got)
	}
	if d := n.trans.Dropped(); d.Blocked != 1 || total(d) != 1 {
		t.Fatalf("drops %+v, want 1 blocked", d)
	}
	n.expectEmpty(1)
}

// TestSendAllocBudget: a heartbeat crosses a link — queued, its link's
// clock event fired, drained into the inbox, received — without a heap
// object. The transport this replaced paid three per message: a timer, a
// delivery closure and the boxed message.
func TestSendAllocBudget(t *testing.T) {
	n := newTestNet(t, 1, 16)
	seq := uint64(0)
	cross := func() {
		seq++
		n.trans.send(0, 1, heartbeat(seq))
		n.clk.Advance(testLatency)
		if got := (<-n.inbox[1]).app.Seq; got != seq {
			t.Fatalf("received %d, want %d", got, seq)
		}
	}
	if got := testing.AllocsPerRun(200, cross); got != 0 {
		t.Errorf("%v allocs per message sent and delivered, want 0", got)
	}
}
