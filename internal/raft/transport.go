package raft

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
)

// Transport delivers messages between the nodes of one cluster over one
// link per ordered (from, to) pair. A link is a FIFO: messages arrive in
// the order they were sent, one modeled latency later, unless a fault
// armed on the link says otherwise. Faults are data (LinkFaults), drawn
// from the link's own seeded generator, so loss, duplication and
// reordering are conditions a test chooses and a seed reproduces — never
// an accident of goroutine scheduling. Messages to crashed (detached) or
// partitioned nodes are dropped, which is exactly the failure model Raft
// is designed for; every drop is counted by cause.
type Transport struct {
	clk     clock.Clock
	latency time.Duration
	links   map[linkKey]*link // fixed at construction

	mu          sync.Mutex
	inboxes     map[int]chan<- message
	partitioned map[int]bool
	drops       Drops // drops decided before a message reaches its link
	// tap, if set, sees every message sent, at the instant it is sent.
	tap func(at time.Time, from, to int, msg message)
}

type linkKey struct{ from, to int }

// LinkFaults is what is wrong with one direction of one link. The zero
// value is a healthy link.
type LinkFaults struct {
	// Loss is the probability that a message is dropped.
	Loss float64
	// Dup is the probability that a message is delivered twice.
	Dup float64
	// Reorder delays each message by a further random amount below it, so
	// a message may overtake those sent up to Reorder before it.
	Reorder time.Duration
	// Delay is extra one-way latency on every message, on top of any
	// SetNodeDelay of the destination.
	Delay time.Duration
	// Blocked drops everything sent in this direction: a one-way
	// partition (the reverse link is its own LinkFaults).
	Blocked bool
}

// Drops counts discarded messages by cause.
type Drops struct {
	// Detached: the destination was crashed when the message was sent, or
	// crashed (and possibly restarted) while it was in flight.
	Detached int
	// Partitioned: either end was isolated by Partition.
	Partitioned int
	// Blocked: the link's one-way partition fault.
	Blocked int
	// Lost: the link's loss fault.
	Lost int
	// Overflow: the destination's inbox was full — packet loss under
	// overload.
	Overflow int
}

func (d *Drops) add(o Drops) {
	d.Detached += o.Detached
	d.Partitioned += o.Partitioned
	d.Blocked += o.Blocked
	d.Lost += o.Lost
	d.Overflow += o.Overflow
}

// NewTransport creates the links between ids on clk, each with one-way
// latency d and a fault generator derived from seed.
func NewTransport(clk clock.Clock, d time.Duration, seed int64, ids []int) *Transport {
	t := &Transport{
		clk:         clk,
		latency:     d,
		links:       make(map[linkKey]*link, len(ids)*len(ids)),
		inboxes:     make(map[int]chan<- message, len(ids)),
		partitioned: make(map[int]bool),
	}
	for _, from := range ids {
		for _, to := range ids {
			if from == to {
				continue
			}
			l := &link{
				t:    t,
				to:   to,
				ring: make([]slot, 16),
				rng:  rand.New(rand.NewSource(seed + int64(from)*7919 + int64(to)*104729)),
			}
			l.timer = clk.AfterFunc(time.Hour, l.drain)
			l.timer.Stop()
			t.links[linkKey{from, to}] = l
		}
	}
	return t
}

// SetLinkFaults replaces the faults armed on the from → to link. Messages
// already in flight keep the delivery time they were given, and the
// destination's SetNodeDelay is not a fault: it stays.
func (t *Transport) SetLinkFaults(from, to int, f LinkFaults) { //lint:allow deadexport ROADMAP item 3's lossy-network scenario will drive it; the link-fault suites do today
	if l := t.links[linkKey{from, to}]; l != nil {
		l.mu.Lock()
		l.faults = f
		l.mu.Unlock()
	}
}

// SetNodeDelay adds extra one-way latency to every message addressed to
// id, modeling a slow follower (congested link, overloaded replica). It
// is a property of the node, kept apart from the faults of the links into
// it: only another SetNodeDelay changes it, a non-positive d removes it.
func (t *Transport) SetNodeDelay(id int, d time.Duration) { //lint:allow deadexport test fault switch: the slow-follower tests (raft pipeline, etcd reads) drive it
	if d < 0 {
		d = 0
	}
	for k, l := range t.links {
		if k.to == id {
			l.mu.Lock()
			l.nodeDelay = d
			l.mu.Unlock()
		}
	}
}

func (t *Transport) attach(id int, inbox chan<- message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inboxes[id] = inbox
}

func (t *Transport) detach(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inboxes, id)
}

// Partition isolates id: messages to and from it are dropped until healed.
func (t *Transport) Partition(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned[id] = true
}

// Heal reconnects id to the rest of the cluster.
func (t *Transport) Heal(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.partitioned, id)
}

// Dropped reports how many messages were discarded, by cause.
func (t *Transport) Dropped() Drops { //lint:allow deadexport test-observation point: the link tests count drops by cause
	t.mu.Lock()
	d := t.drops
	t.mu.Unlock()
	for _, l := range t.links {
		l.mu.Lock()
		d.add(l.drops)
		l.mu.Unlock()
	}
	return d
}

// send queues msg on the from → to link.
func (t *Transport) send(from, to int, msg message) {
	t.mu.Lock()
	if t.tap != nil {
		t.tap(t.clk.Now(), from, to, msg)
	}
	inbox, ok := t.inboxes[to]
	switch {
	case !ok:
		t.drops.Detached++
	case t.partitioned[from] || t.partitioned[to]:
		t.drops.Partitioned++
		ok = false
	}
	t.mu.Unlock()
	if l := t.links[linkKey{from, to}]; ok && l != nil {
		msg.from = from
		l.send(inbox, msg)
	}
}

// slot is one in-flight message.
type slot struct {
	at time.Time
	// inbox is the destination's inbox when the message was sent: a
	// restarted destination has a new one and must not receive it.
	inbox chan<- message
	msg   message
}

// link is one direction of one node pair: a ring of in-flight messages
// sorted by delivery time (ties in send order) and drained by a single
// clock event, re-armed in place for the next delivery time — no timer,
// closure or boxed message per send.
type link struct {
	t  *Transport
	to int

	mu   sync.Mutex
	ring []slot // circular, power-of-two capacity
	head int
	n    int
	// timer runs drain. While the ring is not empty it is armed: pending
	// for armedAt, or fired with drain about to run and re-arm it.
	timer     clock.Timer
	armed     bool
	armedAt   time.Time
	nodeDelay time.Duration // SetNodeDelay of the destination
	faults    LinkFaults
	rng       *rand.Rand
	drops     Drops
}

func (l *link) at(i int) *slot { return &l.ring[(l.head+i)&(len(l.ring)-1)] }

func (l *link) send(inbox chan<- message, msg message) {
	now := l.t.clk.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	f := &l.faults
	switch {
	case f.Blocked:
		l.drops.Blocked++
		return
	case f.Loss > 0 && l.rng.Float64() < f.Loss:
		l.drops.Lost++
		return
	}
	copies := 1
	if f.Dup > 0 && l.rng.Float64() < f.Dup {
		copies = 2
	}
	for ; copies > 0; copies-- {
		at := now.Add(l.t.latency + l.nodeDelay + f.Delay)
		if f.Reorder > 0 {
			at = at.Add(time.Duration(l.rng.Int63n(int64(f.Reorder))))
		} else if l.n > 0 {
			// Send order is arrival order: a message never overtakes one
			// queued while the link was slower.
			if last := l.at(l.n - 1).at; at.Before(last) {
				at = last
			}
		}
		l.insert(slot{at: at, inbox: inbox, msg: msg})
	}
	if head := l.at(0).at; !l.armed || head.Before(l.armedAt) {
		l.arm(head, now)
	}
}

func (l *link) arm(at, now time.Time) {
	l.armed, l.armedAt = true, at
	l.timer.Reset(at.Sub(now))
}

// insert places s after every queued message due at or before it.
func (l *link) insert(s slot) {
	if l.n == len(l.ring) {
		grown := make([]slot, 2*len(l.ring))
		for i := 0; i < l.n; i++ {
			grown[i] = *l.at(i)
		}
		l.ring, l.head = grown, 0
	}
	i := l.n
	for ; i > 0 && l.at(i-1).at.After(s.at); i-- {
		*l.at(i) = *l.at(i - 1)
	}
	*l.at(i) = s
	l.n++
}

// drain delivers every message that is due and re-arms the timer for the
// next one. It runs when the timer fires, but not every run is the firing
// armedAt was set for: a Reset that loses the race with a firing makes
// the timer fire twice, and the second run may find the link re-armed for
// a later time by the first. That run must deliver nothing early.
func (l *link) drain() {
	now := l.t.clk.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if now.Before(l.armedAt) {
		if l.timer.Stop() {
			// Still pending for armedAt: this run is a stale firing.
			l.timer.Reset(l.armedAt.Sub(now))
			return
		}
		// The timer did fire for armedAt, so everything up to it is due
		// whatever the clock read: a closed clock fires timers at once
		// without advancing, and must still empty the ring rather than
		// re-arm for the same message forever.
		now = l.armedAt
	}
	// Liveness is re-checked at delivery time: the destination may have
	// crashed, or been cut off, while a message was in flight.
	l.t.mu.Lock()
	cur, attached := l.t.inboxes[l.to]
	cut := l.t.partitioned[l.to]
	l.t.mu.Unlock()
	for l.n > 0 && !l.at(0).at.After(now) {
		s := l.at(0)
		switch {
		case !attached || cur != s.inbox:
			l.drops.Detached++
		case cut:
			l.drops.Partitioned++
		default:
			select {
			case s.inbox <- s.msg:
			default:
				l.drops.Overflow++
			}
		}
		*s = slot{} // drop the references to entries and snapshot bytes
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
	}
	if l.n > 0 {
		l.arm(l.at(0).at, now)
	} else {
		l.armed = false
	}
}
