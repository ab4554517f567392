package raft

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// Node is a single Raft participant: the driver of one core. It steps the
// core with what happens to the node — a message from the inbox, a timer,
// a client call from the caller's goroutine — and carries out the effects
// of each step in order, under one mutex. Its one goroutine (run) also
// feeds the apply channel.
type Node struct {
	cfg   Config
	store *MemoryStorage
	trans *Transport

	mu      sync.Mutex
	core    *core
	stopped bool
	// readSeq numbers this node's ReadIndex calls; readWaiters holds the
	// ones waiting for a round. A call answered by its own step (a lease
	// read, or nobody to ask) finds its answer in stepRead instead.
	readSeq     uint64
	readWaiters map[uint64]chan readIndexResult
	stepRead    struct {
		id       uint64
		answered bool
		readIndexResult
	}
	// applyQueue[applyHead:] are committed entries not yet on applyCh.
	applyQueue []Apply
	applyHead  int

	// heartbeat times the leader's rounds: one ticker for the node's life,
	// stopped on a non-leader, its period Reset in place when the cadence
	// changes. (A ticker, not a timer the run loop re-arms after each tick:
	// the clock must hold the next tick before this goroutine has run, or a
	// sim clock that gets ahead of a starved leader finds the followers'
	// election timeouts next on its heap and jumps to them.)
	heartbeat     clock.Ticker
	electionTimer clock.Timer
	applyCh       chan Apply
	applyReady    chan struct{} // a step off the run loop queued applies
	inbox         chan message
	stopCh        chan struct{}
	done          chan struct{}
}

// readIndexResult is what a ReadIndex call resolves to.
type readIndexResult struct {
	index uint64
	err   error
}

// startNode boots a node from its persisted storage and begins its run
// loop. Called by Cluster.
func startNode(id int, peers []int, cfg Config, store *MemoryStorage, trans *Transport) *Node {
	n := &Node{
		cfg:         cfg,
		store:       store,
		trans:       trans,
		core:        newCore(id, peers, cfg, store.Load()),
		readWaiters: make(map[uint64]chan readIndexResult),
		applyCh:     make(chan Apply, 256),
		applyReady:  make(chan struct{}, 1),
		inbox:       make(chan message, 256),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	trans.attach(id, n.inbox)
	n.electionTimer = cfg.Clock.NewTimer(n.core.electionTimeout(false))
	n.heartbeat = cfg.Clock.NewTicker(cfg.HeartbeatInterval)
	n.heartbeat.Stop()
	n.execute()
	go n.run()
	return n
}

// step runs one input through the core at the node's clock reading and
// carries out its effects. n.mu is held.
func (n *Node) step(in input) error {
	in.now = n.cfg.Clock.Now()
	err := n.core.Step(in)
	n.execute()
	return err
}

// execute carries out the core's effects in the order it made them and
// empties the list for the next step.
func (n *Node) execute() {
	queued := false
	for i := range n.core.out {
		e := &n.core.out[i]
		switch e.kind {
		case persistHardState:
			n.store.SetHardState(e.term, e.vote)
		case persistEntries:
			n.store.AppendEntries(e.index, e.entries)
		case persistSnapshot:
			n.store.InstallSnapshot(e.index, e.term, e.data)
		case persistCompact:
			n.store.Compact(e.index, e.term, e.data)
		case send:
			n.trans.send(n.core.id, e.to, e.msg)
		case armElection:
			if e.d > 0 {
				clock.Rearm(n.electionTimer, e.d)
			} else {
				n.electionTimer.Stop()
			}
		case setHeartbeat:
			if e.d > 0 {
				n.heartbeat.Reset(e.d)
			} else {
				n.heartbeat.Stop()
			}
		case deliver:
			n.applyQueue = append(n.applyQueue, e.apply)
			queued = true
		case readDone:
			if e.id == n.stepRead.id {
				n.stepRead.answered = true
				n.stepRead.readIndexResult = readIndexResult{index: e.index, err: e.err}
			} else if ch, ok := n.readWaiters[e.id]; ok {
				delete(n.readWaiters, e.id)
				ch <- readIndexResult{index: e.index, err: e.err} // its one answer: never blocks
			}
		}
	}
	clear(n.core.out) // drop the references to entries, snapshots and commands
	n.core.out = n.core.out[:0]
	if queued {
		select {
		case n.applyReady <- struct{}{}:
		default:
		}
	}
}

// run is the node's one goroutine: it steps the core on messages and
// timers, and hands committed entries to applyCh in log order while any
// are queued, so a slow consumer holds up neither.
func (n *Node) run() {
	defer close(n.done)
	n.mu.Lock()
	for {
		var out chan Apply // nil, a case never ready, while nothing is queued
		var next Apply
		if n.applyHead < len(n.applyQueue) {
			out, next = n.applyCh, n.applyQueue[n.applyHead]
		}
		n.mu.Unlock()
		var in input
		delivered := false
		select {
		case <-n.stopCh:
			n.mu.Lock()
			n.electionTimer.Stop()
			n.heartbeat.Stop()
			n.trans.detach(n.core.id)
			n.mu.Unlock()
			return
		case m := <-n.inbox:
			in = input{kind: inMessage, msg: m}
		case <-n.electionTimer.C():
			in.kind = inElectionTimeout
		case <-n.heartbeat.C():
			in.kind = inHeartbeat
		case <-n.applyReady:
		case out <- next:
			delivered = true
		}
		n.mu.Lock() // held into the next pass's look at the queue
		if in.kind != 0 {
			n.step(in)
		} else if delivered {
			n.applyQueue[n.applyHead] = Apply{} // its command is the consumer's now
			// Half delivered: move the rest to the front, or a lagging consumer grows it.
			if n.applyHead++; 2*n.applyHead >= len(n.applyQueue) {
				k := copy(n.applyQueue, n.applyQueue[n.applyHead:])
				clear(n.applyQueue[k:])
				n.applyQueue, n.applyHead = n.applyQueue[:k], 0
			}
		}
	}
}

// stop terminates the run loop. The storage object survives, so a
// subsequent startNode with the same storage models a crash-restart.
func (n *Node) stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.mu.Unlock()
	<-n.done
}

// Propose appends cmd to the replicated log if this node is the leader.
// It returns the index and term assigned to the entry. Commitment is
// reported asynchronously via ApplyCh. The log keeps cmd itself, not a
// copy (Entry.Cmd): the caller must never write to it again.
func (n *Node) Propose(cmd []byte) (index, term uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return 0, 0, ErrStopped
	}
	if err := n.step(input{kind: inPropose, data: cmd}); err != nil {
		return 0, 0, err
	}
	return n.core.lastIndex(), n.core.currentTerm, nil // the entry the step appended
}

// ReadIndex runs the Raft read-index protocol (§6.4 of Ongaro's thesis)
// and returns an index I such that every write acknowledged before the
// call has log index <= I. A caller that waits for its local state
// machine to apply through I and then reads locally gets a linearizable
// read with zero log entries.
//
// On the leader, the call first tries the check-quorum lease — a live
// lease answers from the commit index with zero messages. Otherwise it
// records the commit index, confirms leadership with a round of
// heartbeat acks from a quorum (so a deposed leader in a stale term can
// never serve a stale index), and returns it; concurrent calls share
// confirmation rounds instead of launching their own. A leader that has
// not yet committed an entry in its own term first commits a no-op
// barrier, because its commit index may lag writes acknowledged by its
// predecessor. Followers forward to the leader they believe in.
//
// It fails with ErrNoLeader when there is no leader to ask, ErrNotLeader
// when leadership was lost mid-round, and ErrReadTimeout when no quorum
// answered within timeout (non-positive timeout defaults to the election
// timeout bound).
func (n *Node) ReadIndex(timeout time.Duration) (uint64, error) {
	if timeout <= 0 {
		timeout = n.cfg.ElectionTimeoutMax
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, ErrStopped
	}
	n.readSeq++
	id := n.readSeq
	n.stepRead.id, n.stepRead.answered = id, false
	n.step(input{kind: inRead, id: id})
	n.stepRead.id = 0
	if n.stepRead.answered { // a lease read, or nobody to ask
		r := n.stepRead.readIndexResult
		n.mu.Unlock()
		return r.index, r.err
	}
	// The read waits for a round: the answer comes from a later step.
	ch := make(chan readIndexResult, 1)
	n.readWaiters[id] = ch
	n.mu.Unlock()

	timer := n.cfg.Clock.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.index, r.err
	case <-timer.C():
		n.mu.Lock()
		delete(n.readWaiters, id)
		n.mu.Unlock()
		// The round may have completed while the timer fired.
		select {
		case r := <-ch:
			return r.index, r.err
		default:
		}
		return 0, ErrReadTimeout
	case <-n.stopCh:
		return 0, ErrStopped
	}
}

// Wake tells the node that a client asked it for service and did not get
// it: found no leader, or had a request to the leader it knew fail. On a
// node that is not on the idle cadence it does nothing. An idle leader
// shows itself with a round at once; any other idle node takes a fresh
// normal election timeout and tells its peers, so that a cluster whose
// leader died during an idle spell elects a new one within one ordinary
// timeout of the first request instead of idleFactor of them.
func (n *Node) Wake() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped {
		n.step(input{kind: inWake})
	}
}

// Compact discards log entries through index, recording snapshot as the
// application state at that point (§7 of the Raft paper). index must not
// exceed the node's applied index; compacting at or below the current
// snapshot is a no-op.
func (n *Node) Compact(index uint64, snapshot []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.step(input{kind: inCompact, index: index, data: snapshot})
}

// ID returns the node's identity.
func (n *Node) ID() int { return n.core.id }

// ApplyCh delivers committed entries in log order.
func (n *Node) ApplyCh() <-chan Apply { return n.applyCh }

// State returns the node's current role.
func (n *Node) State() State { //lint:allow deadexport test-observation point: the election and failover tests read a node's role
	st, _ := n.Status()
	return st
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	_, term := n.Status()
	return term
}

// Status returns the node's current role and term under one lock
// acquisition, so callers comparing leaders across nodes cannot observe
// a role from one term paired with another term's number.
func (n *Node) Status() (State, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.state, n.core.currentTerm
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { //lint:allow deadexport test-observation point: the replication tests compare commit progress
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.commitIndex
}

// ReplicationStats returns the node's cumulative replication counters.
func (n *Node) ReplicationStats() ReplicationStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.repl
}

// ReadStats returns the node's cumulative read-path counters.
func (n *Node) ReadStats() ReadStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.reads
}

// setRegistry mirrors the node's counters into reg.
func (n *Node) setRegistry(reg *metrics.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.core.mtr = reg
}

// Log returns a copy of the node's log (for verification in tests).
func (n *Node) Log() []Entry { //lint:allow deadexport test-observation point: the log-matching, append-only and compaction tests read logs
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Entry{}, n.core.log...)
}

// Snapshot returns the node's persisted snapshot and the index it covers
// (nil, 0 when no compaction has happened). Applications restore from it
// before consuming the apply channel after a restart.
func (n *Node) Snapshot() ([]byte, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.core.snapIndex == 0 {
		return nil, 0
	}
	return append([]byte(nil), n.core.snapshot...), n.core.snapIndex
}
