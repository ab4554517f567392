// Package raft implements the Raft consensus protocol (Ongaro & Ousterhout,
// USENIX ATC 2014): leader election, log replication, and commitment. It
// backs the replicated etcd-style key-value store that the DLaaS platform
// uses for reliable learner-status updates.
//
// The implementation is complete enough to exercise the paper's
// dependability claims: a 3-way replicated store keeps accepting writes
// while any minority of nodes is crashed, and crashed nodes recover from
// their persisted term/vote/log state.
//
// Replication is pipelined by default: the leader keeps a bounded
// in-flight window per follower, advances nextIndex optimistically as it
// sends, and rewinds on a consistency reject — instead of re-shipping the
// full log suffix every broadcast and waiting one round per batch.
// Lagging followers catch up through streamed snapshot chunks rather than
// one monolithic installSnapshot message. Config.MaxInflightEntries <= 1
// restores the stop-and-wait behavior as an A/B escape hatch.
//
// The linearizable read path is quorum-amortized: concurrent ReadIndex
// calls coalesce onto shared leadership-confirmation rounds (group
// commit for reads), and each quorum-confirmed round extends a
// check-quorum lease of ElectionTimeoutMin - MaxClockDrift during which
// reads are answered from the commit index with zero messages. The
// lease rests on followers refusing to vote within ElectionTimeoutMin
// of hearing their leader (handleRequestVote); it dies on step-down and
// on observed node-clock skew beyond the drift bound, and it lapses
// between the rounds of an idle cluster, whose first read then pays one
// confirmation round. Config.LeaseReads / Config.CoalesceReads (and the
// matching runtime setters) restore the one-round-per-read PR 5
// behavior as the A/B escape hatch.
//
// The heartbeat cadence follows the log (cadence.go): a leader whose
// followers all hold and have committed the whole log, and have agreed
// to wait idleFactor times longer before they suspect it, heartbeats
// idleFactor times less often. Whatever is asked of the log, or of any
// member by a client (Node.Wake), puts every node back on the fast
// cadence in the instant it happens.
package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// State is the role a node currently plays.
type State int

// Raft node roles.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Entry is a single replicated log record.
type Entry struct {
	Index uint64
	Term  uint64
	Cmd   []byte
}

// Apply is delivered on the apply channel when an entry commits, or when
// a leader installs a snapshot on a lagging follower (IsSnapshot set; the
// application must replace its state with the snapshot contents).
type Apply struct {
	Entry Entry
	// IsSnapshot marks a snapshot installation instead of an entry.
	IsSnapshot bool
	// Snapshot is the serialized application state through SnapIndex.
	Snapshot []byte
	// SnapIndex is the last log index the snapshot covers.
	SnapIndex uint64
}

// ErrNotLeader is returned by Propose on non-leader nodes.
var ErrNotLeader = errors.New("raft: not leader")

// ErrStopped is returned when the node has been crashed or shut down.
var ErrStopped = errors.New("raft: node stopped")

// ErrNoLeader is returned by ReadIndex on a node that knows no leader to
// forward to.
var ErrNoLeader = errors.New("raft: no leader known")

// ErrReadTimeout is returned when a ReadIndex round did not gather a
// quorum of heartbeat acks in time (partitioned or deposed leader).
var ErrReadTimeout = errors.New("raft: read index timed out")

// Config holds tunables shared by the nodes of one cluster.
type Config struct {
	// Clock drives all timeouts.
	Clock clock.Clock
	// ElectionTimeoutMin/Max bound the randomized follower timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's AppendEntries cadence while
	// anything is being asked of the log or a follower is behind or
	// silent. Once the log is settled and every follower has agreed to
	// an election timeout idleFactor times longer, rounds are
	// idleFactor × HeartbeatInterval apart until the next demand.
	HeartbeatInterval time.Duration
	// Seed makes election randomization reproducible.
	Seed int64

	// MaxInflightEntries bounds how many log entries a leader may have
	// sent to one follower beyond its acknowledged match index before
	// further sends carry no entries (the AppendEntries pipeline
	// window). A value <= 1 disables pipelining entirely: the leader
	// re-ships the full pending suffix on every broadcast and nextIndex
	// advances only on acknowledgment — stop-and-wait, kept as the A/B
	// escape hatch.
	MaxInflightEntries int
	// MaxInflightBytes bounds the same window by summed command bytes.
	MaxInflightBytes int
	// MaxAppendEntries caps how many entries ride in one AppendEntries
	// message when pipelining (0 = no per-message cap).
	MaxAppendEntries int
	// SnapChunkSize is the installSnapshot payload size: a lagging
	// follower catches up through a stream of offset-addressed chunks
	// instead of one monolithic message. <= 0 ships the snapshot whole.
	SnapChunkSize int

	// LeaseReads enables check-quorum leader leases: every heartbeat
	// round a quorum confirms extends a lease of
	// ElectionTimeoutMin - MaxClockDrift from the round's start, and
	// while the lease is live ReadIndex answers from the commit index
	// with zero messages. Togglable at runtime via SetLeaseReads.
	LeaseReads bool
	// CoalesceReads makes concurrent ReadIndex calls share leadership
	// confirmation rounds: while one round is in flight, later reads
	// queue for the next round, which fires when the current one
	// completes — one heartbeat round resolves N reads, exactly like
	// group commit on the write path. Togglable via SetReadCoalescing.
	CoalesceReads bool
	// MaxClockDrift bounds how far apart any two node clocks are assumed
	// to read. It is the lease-read safety margin, enforced three ways:
	// the lease duration is shortened by it, an append ack whose echoed
	// clock reading deviates from the leader's by more than it kills the
	// lease (and blocks re-arming off that follower), and a lease whose
	// local clock has stepped behind the grant instant is refused. A
	// negative value removes ALL three defenses — UNSAFE: a clock step
	// can then leave a deposed leader serving stale lease reads. It
	// exists only so tests can demonstrate the bound is load-bearing.
	MaxClockDrift time.Duration
}

// DefaultConfig mirrors etcd's stock timing (scaled for the simulation)
// with pipelined replication and chunked snapshot streaming enabled.
func DefaultConfig(clk clock.Clock) Config {
	return Config{
		Clock:              clk,
		ElectionTimeoutMin: 150 * time.Millisecond,
		ElectionTimeoutMax: 300 * time.Millisecond,
		HeartbeatInterval:  50 * time.Millisecond,
		Seed:               1,
		MaxInflightEntries: 1024,
		MaxInflightBytes:   1 << 20,
		MaxAppendEntries:   64,
		SnapChunkSize:      32 << 10,
		LeaseReads:         true,
		CoalesceReads:      true,
		MaxClockDrift:      20 * time.Millisecond,
	}
}

// ReplicationStats are cumulative per-node replication counters, the
// observability surface of the pipelined write path.
type ReplicationStats struct {
	// AppendsSent counts AppendEntries messages sent while leading
	// (heartbeats included); EntriesSent the log entries they carried.
	// EntriesSent/AppendsSent is the entries-per-append ratio.
	AppendsSent uint64
	EntriesSent uint64
	// AppendRejects counts log-consistency rejects (nextIndex rewinds).
	AppendRejects uint64
	// SnapChunksSent/SnapBytesSent count streamed snapshot chunks.
	SnapChunksSent uint64
	SnapBytesSent  uint64
	// IdleRounds counts the heartbeat rounds that found the log settled
	// and offered (or kept) the idle cadence.
	IdleRounds uint64
}

// ReadStats are cumulative per-node read-path counters, the
// observability surface of the quorum-amortized read path.
type ReadStats struct {
	// Rounds counts leadership-confirmation heartbeat rounds launched
	// for reads; RoundReads the reads those rounds resolved.
	// RoundReads/Rounds is the coalescing ratio, Rounds/total reads the
	// amortized quorum cost per read.
	Rounds     uint64
	RoundReads uint64
	// LeaseReads counts reads answered from a live check-quorum lease
	// with zero messages.
	LeaseReads uint64
	// LeaseExpiries counts lease invalidations (step-down, term change,
	// clock skew beyond the drift bound, runtime disable).
	LeaseExpiries uint64
}

// Node is a single Raft participant.
type Node struct {
	id    int
	peers []int
	cfg   Config
	store *MemoryStorage
	trans *Transport

	mu          sync.Mutex
	state       State
	currentTerm uint64
	votedFor    int     // -1 = none
	log         []Entry // entries with Index > snapIndex
	snapIndex   uint64
	snapTerm    uint64
	snapshot    []byte
	commitIndex uint64
	lastApplied uint64
	leaderID    int

	// Leader volatile state.
	nextIndex  map[int]uint64
	matchIndex map[int]uint64
	votes      map[int]bool

	// snapXfers tracks outbound snapshot streams per follower (leader
	// side); pendingSnap accumulates inbound chunks (follower side).
	snapXfers   map[int]*snapXfer
	pendingSnap *pendingSnapshot

	// Read-index state. hbSeq numbers the leader's heartbeat rounds so a
	// pending read only counts acks sent for rounds at or after its
	// registration; pendingReads are the leadership-confirmation rounds in
	// flight. barrierTerm remembers the term a no-op barrier entry was
	// already proposed for. On followers, readWaiters holds forwarded
	// ReadIndex calls awaiting the leader's answer.
	hbSeq        uint64
	pendingReads []*pendingRead
	barrierTerm  uint64
	readSeq      uint64
	readWaiters  map[uint64]chan readIndexResult

	// Check-quorum lease state (leader only). The lease is valid for
	// local clock readings in [leaseFrom, leaseUntil) during leaseTerm.
	// roundStart timestamps each heartbeat round at broadcast; ackSeq is
	// the highest round each follower has acked; skewBad marks followers
	// whose last ack's clock echo exceeded MaxClockDrift (their acks
	// cannot extend the lease until a clean echo clears them);
	// lastLeaseRound is the newest round that extended the lease.
	leaseFrom      time.Time
	leaseUntil     time.Time
	leaseTerm      uint64
	lastLeaseRound uint64
	roundStart     map[uint64]time.Time
	ackSeq         map[int]uint64
	skewBad        map[int]bool
	leaseOn        atomic.Bool
	coalesceOn     atomic.Bool

	// quorumScratch holds one value per peer for kthLargest; reused under
	// mu so that the quorum math on every append ack allocates nothing.
	quorumScratch []uint64

	rng           *rand.Rand
	electionTimer clock.Timer

	// Cadence state (cadence.go). heartbeat times the leader's rounds: one
	// ticker for the node's life, stopped on a non-leader, its period
	// Reset in place when the cadence changes. (A ticker, not a timer the
	// run loop re-arms after each tick: the clock must hold the next tick
	// before this goroutine has run, or a sim clock that gets ahead of a
	// starved leader finds the followers' election timeouts next on its
	// heap and jumps to them.) idle says the node's own timer is on the
	// idle cadence — the heartbeat of a leader, the election timer of
	// anyone else.
	// roundIdle says round hbSeq carried the idle offer; roundAcked and
	// idleAgreed are the followers (one bit each, peerBit) that have acked
	// that round, and acked it accepting the offer. On a follower,
	// leaderSeq is the newest round it has seen from the leader of its term
	// — an append from an older one, duplicated or overtaken on the way,
	// says nothing about the leader now and leaves the timer alone — and
	// lastContact when it last accepted a round at least that new, or a
	// snapshot chunk, on its own clock.
	heartbeat   clock.Ticker
	idle        bool
	roundIdle   bool
	roundAcked  uint64
	idleAgreed  uint64
	followers   uint64 // every peer's bit but this node's
	leaderSeq   uint64
	lastContact time.Time

	// applyQueue decouples commit detection from applyCh consumption:
	// every handler enqueues under mu and one drainer goroutine forwards
	// in order, so applies can never interleave out of log order.
	applyQueue []Apply
	applyKick  chan struct{}
	drainDone  chan struct{}

	// Replication counters (see ReplicationStats), mirrored into a
	// metrics registry when the cluster is instrumented.
	statAppends    atomic.Uint64
	statEntries    atomic.Uint64
	statRejects    atomic.Uint64
	statSnapChunks atomic.Uint64
	statSnapBytes  atomic.Uint64
	statIdleRounds atomic.Uint64

	// Read-path counters (see ReadStats).
	statReadRounds    atomic.Uint64
	statRoundReads    atomic.Uint64
	statLeaseReads    atomic.Uint64
	statLeaseExpiries atomic.Uint64

	mtr      atomic.Pointer[metrics.Registry]
	mtrLabel string

	applyCh chan Apply
	inbox   chan message
	stopCh  chan struct{}
	done    chan struct{}
	stopped bool
}

// snapXfer is one outbound snapshot stream to a follower. data aliases
// the leader's snapshot bytes: snapshot slices are immutable once taken
// (Compact and snapshot installs replace the slice wholesale, never
// mutate it), so chunking needs no per-send copy.
type snapXfer struct {
	index  uint64
	term   uint64
	data   []byte
	offset int
}

// pendingSnapshot accumulates inbound snapshot chunks on a follower
// until the final (done) chunk installs them wholesale.
type pendingSnapshot struct {
	index uint64
	term  uint64
	data  []byte
}

// readIndexResult is what a ReadIndex call resolves to.
type readIndexResult struct {
	index uint64
	err   error
}

// remoteRead identifies a follower's forwarded ReadIndex awaiting this
// leader's confirmation.
type remoteRead struct {
	node int
	id   uint64
}

// pendingRead is one leadership-confirmation round: the read completes
// with the leader's commit index once a quorum has acked a heartbeat
// round >= seq and the commit index has reached the leader's own term.
// With coalescing, at most one round is started (broadcast) at a time;
// a second, unstarted round accumulates reads that arrived too late to
// join it — an ack may predate a late joiner's registration, so joining
// an in-flight round would hand out a commit index recorded before the
// leadership it proves — and launches when the started round resolves.
type pendingRead struct {
	seq     uint64
	started bool
	acks    map[int]bool
	local   []chan readIndexResult
	remote  []remoteRead
}

// startNode boots a node from its persisted storage and begins its run
// loop. Called by Cluster.
func startNode(id int, peers []int, cfg Config, store *MemoryStorage, trans *Transport) *Node {
	n := &Node{
		id:          id,
		peers:       peers,
		cfg:         cfg,
		store:       store,
		trans:       trans,
		state:       Follower,
		votedFor:    -1,
		leaderID:    -1,
		nextIndex:   make(map[int]uint64),
		matchIndex:  make(map[int]uint64),
		snapXfers:   make(map[int]*snapXfer),
		readWaiters: make(map[uint64]chan readIndexResult),
		roundStart:  make(map[uint64]time.Time),
		ackSeq:      make(map[int]uint64),
		skewBad:     make(map[int]bool),
		rng:         rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		applyCh:     make(chan Apply, 256),
		applyKick:   make(chan struct{}, 1),
		drainDone:   make(chan struct{}),
		inbox:       make(chan message, 256),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
		mtrLabel:    fmt.Sprintf("node%d", id),
	}
	n.leaseOn.Store(cfg.LeaseReads)
	n.coalesceOn.Store(cfg.CoalesceReads)
	// Recover persisted state. Entries at or below the snapshot index
	// were compacted away; applying resumes after the snapshot.
	ps := store.Load()
	n.currentTerm = ps.Term
	n.votedFor = ps.VotedFor
	n.log = append(n.log, ps.Log...)
	n.snapIndex = ps.SnapIndex
	n.snapTerm = ps.SnapTerm
	n.snapshot = ps.Snapshot
	n.commitIndex = ps.SnapIndex
	n.lastApplied = ps.SnapIndex

	if len(peers) > 64 {
		panic("raft: a round's acknowledgements are one bit per member of a uint64")
	}
	for _, p := range peers {
		if p != id {
			n.followers |= n.peerBit(p)
		}
	}
	trans.attach(id, n.inbox)
	n.electionTimer = cfg.Clock.NewTimer(n.randomElectionTimeout())
	n.heartbeat = cfg.Clock.NewTicker(cfg.HeartbeatInterval)
	n.heartbeat.Stop()
	// The others may be on the idle cadence, where the leader's next round
	// is further off than this node's first timeout: say so before it runs.
	n.sendPeers(wake{Start: true}.wire())
	go n.run()
	go n.drainApplies()
	return n
}

// ID returns the node's identity.
func (n *Node) ID() int { return n.id }

// ApplyCh delivers committed entries in log order.
func (n *Node) ApplyCh() <-chan Apply { return n.applyCh }

// Leader reports the node's current belief about the leader (-1 unknown).
func (n *Node) Leader() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// State returns the node's current role.
func (n *Node) State() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentTerm
}

// Status returns the node's current role and term under one lock
// acquisition, so callers comparing leaders across nodes cannot observe
// a role from one term paired with another term's number.
func (n *Node) Status() (State, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state, n.currentTerm
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// ReplicationStats returns the node's cumulative replication counters.
func (n *Node) ReplicationStats() ReplicationStats {
	return ReplicationStats{
		AppendsSent:    n.statAppends.Load(),
		EntriesSent:    n.statEntries.Load(),
		AppendRejects:  n.statRejects.Load(),
		SnapChunksSent: n.statSnapChunks.Load(),
		SnapBytesSent:  n.statSnapBytes.Load(),
		IdleRounds:     n.statIdleRounds.Load(),
	}
}

// ReadStats returns the node's cumulative read-path counters.
func (n *Node) ReadStats() ReadStats {
	return ReadStats{
		Rounds:        n.statReadRounds.Load(),
		RoundReads:    n.statRoundReads.Load(),
		LeaseReads:    n.statLeaseReads.Load(),
		LeaseExpiries: n.statLeaseExpiries.Load(),
	}
}

// SetLeaseReads toggles the check-quorum lease at runtime (the etcd
// layer flips it with the read mode). Disabling kills any live lease
// immediately, so the very next read pays a full confirmation round.
func (n *Node) SetLeaseReads(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaseOn.Store(on)
	if !on {
		n.invalidateLeaseLocked()
	}
}

// SetReadCoalescing toggles read-round coalescing at runtime. Turning
// it off restores the PR 5 one-round-per-read behavior (the A/B
// baseline); an already-queued coalesced round still completes.
func (n *Node) SetReadCoalescing(on bool) {
	n.coalesceOn.Store(on)
}

// setRegistry mirrors the node's replication counters into reg.
func (n *Node) setRegistry(reg *metrics.Registry) { n.mtr.Store(reg) }

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
// never serve a stale index), and returns it; with coalescing enabled,
// concurrent calls share confirmation rounds instead of launching their
// own. A leader that has not yet committed an entry in its own term
// first commits a no-op barrier, because its commit index may lag
// writes acknowledged by its predecessor. Followers forward to the
// leader they believe in.
//
// It fails with ErrNoLeader when there is no leader to ask, ErrNotLeader
// when leadership was lost mid-round, and ErrReadTimeout when no quorum
// answered within timeout (non-positive timeout defaults to the election
// timeout bound).
func (n *Node) ReadIndex(timeout time.Duration) (uint64, error) {
	if timeout <= 0 {
		timeout = n.cfg.ElectionTimeoutMax
	}
	ch := make(chan readIndexResult, 1)
	var forwarded uint64
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, ErrStopped
	}
	if n.state == Leader {
		if idx, ok := n.leaseReadLocked(); ok {
			n.mu.Unlock()
			return idx, nil
		}
		n.startReadLocked(ch, nil)
	} else {
		leader := n.leaderID
		if leader < 0 || leader == n.id {
			n.mu.Unlock()
			return 0, ErrNoLeader
		}
		n.readSeq++
		forwarded = n.readSeq
		n.readWaiters[forwarded] = ch
		n.trans.send(n.id, leader, readIndexReq{ID: forwarded}.wire())
	}
	n.mu.Unlock()

	timer := n.cfg.Clock.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.index, r.err
	case <-timer.C():
		if forwarded != 0 {
			n.mu.Lock()
			delete(n.readWaiters, forwarded)
			n.mu.Unlock()
		}
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

// startReadLocked registers one read on the leader: either joining a
// coalesced confirmation round or launching its own.
func (n *Node) startReadLocked(local chan readIndexResult, remote *remoteRead) {
	// A freshly elected leader may not know its predecessor's full commit
	// index (§5.4.2 only advances commitment for current-term entries), so
	// its commit index could understate acknowledged writes. Commit a
	// no-op barrier once per term before serving any read index.
	if n.termAtLocked(n.commitIndex) != n.currentTerm && n.barrierTerm != n.currentTerm {
		n.barrierTerm = n.currentTerm
		n.appendLocked(nil)
	}
	if n.coalesceOn.Load() && len(n.pendingReads) > 0 {
		// Coalesce: the newest pending round is either still unlaunched
		// (join it) or already broadcast — its acks may predate this
		// call, so a late joiner queues for the NEXT round instead,
		// which fires when the in-flight one resolves. Batching emerges
		// from concurrency, exactly like group commit on writes.
		last := n.pendingReads[len(n.pendingReads)-1]
		if last.started {
			last = &pendingRead{acks: make(map[int]bool)}
			n.pendingReads = append(n.pendingReads, last)
		}
		if local != nil {
			last.local = append(last.local, local)
		}
		if remote != nil {
			last.remote = append(last.remote, *remote)
		}
		return
	}
	pr := &pendingRead{acks: make(map[int]bool)}
	if local != nil {
		pr.local = append(pr.local, local)
	}
	if remote != nil {
		pr.remote = append(pr.remote, *remote)
	}
	n.pendingReads = append(n.pendingReads, pr)
	n.launchReadRoundLocked(pr)
	// A single-node cluster is its own quorum.
	n.maybeCompleteReadsLocked()
}

// launchReadRoundLocked broadcasts the heartbeat round whose acks will
// confirm pr's leadership.
func (n *Node) launchReadRoundLocked(pr *pendingRead) {
	pr.seq = n.hbSeq + 1
	pr.started = true
	n.statReadRounds.Add(1)
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_readindex_rounds", n.mtrLabel)
	}
	n.wakeLocked(wakeRead)
	n.broadcastAppendLocked()
}

// maybeCompleteReadsLocked resolves every launched round whose quorum
// has acked, provided the commit index has reached the leader's own
// term, then launches the queued coalesced round (if any). The outer
// loop re-runs the completion pass for single-node clusters, where the
// freshly launched round is its own quorum.
func (n *Node) maybeCompleteReadsLocked() {
	if n.state != Leader {
		return
	}
	if n.termAtLocked(n.commitIndex) != n.currentTerm {
		return
	}
	quorum := len(n.peers)/2 + 1
	for len(n.pendingReads) > 0 {
		completed := false
		keep := n.pendingReads[:0]
		for _, pr := range n.pendingReads {
			if pr.started && len(pr.acks)+1 >= quorum { // +1: the leader itself
				n.statRoundReads.Add(uint64(len(pr.local) + len(pr.remote)))
				n.completeReadLocked(pr, n.commitIndex, nil)
				completed = true
			} else {
				keep = append(keep, pr)
			}
		}
		n.pendingReads = keep
		if !completed {
			return
		}
		if reg := n.mtr.Load(); reg != nil {
			if rounds := n.statReadRounds.Load(); rounds > 0 {
				reg.SetGauge("raft_reads_per_round",
					float64(n.statRoundReads.Load())/float64(rounds), n.mtrLabel)
			}
		}
		launched := false
		for _, pr := range n.pendingReads {
			if !pr.started {
				n.launchReadRoundLocked(pr)
				launched = true
				break
			}
		}
		if !launched || quorum > 1 {
			return
		}
	}
}

// completeReadLocked delivers a read-index round's outcome to its local
// and forwarded waiters.
func (n *Node) completeReadLocked(pr *pendingRead, idx uint64, err error) {
	for _, ch := range pr.local {
		select {
		case ch <- readIndexResult{index: idx, err: err}:
		default:
		}
	}
	for _, r := range pr.remote {
		n.trans.send(n.id, r.node, readIndexResp{ID: r.id, Index: idx, OK: err == nil}.wire())
	}
}

// failPendingReadsLocked aborts every in-flight read-index round; called
// on loss of leadership.
func (n *Node) failPendingReadsLocked() {
	for _, pr := range n.pendingReads {
		n.completeReadLocked(pr, 0, ErrNotLeader)
	}
	n.pendingReads = nil
}

// leaseReadLocked answers a read from the check-quorum lease: while a
// quorum round confirmed leadership less than
// ElectionTimeoutMin - MaxClockDrift ago (on the local clock), no other
// node can have won an election — each follower of that quorum reset its
// election timer on the round's append and refuses its vote to anyone
// for ElectionTimeoutMin from it (handleRequestVote), and an election
// needs one of them — so the commit index is served with zero messages.
// On the idle cadence rounds are further apart than the lease is long:
// it lapses, and the next read pays one round, which also re-arms it.
// The barrier precondition matches the round path: a fresh
// leader whose commit index hasn't reached its own term may understate
// acknowledged writes and must not answer from a lease.
func (n *Node) leaseReadLocked() (uint64, bool) {
	if !n.leaseOn.Load() || n.leaseUntil.IsZero() || n.leaseTerm != n.currentTerm {
		return 0, false
	}
	if n.termAtLocked(n.commitIndex) != n.currentTerm {
		return 0, false
	}
	now := n.cfg.Clock.Now()
	if n.cfg.MaxClockDrift >= 0 && now.Before(n.leaseFrom) {
		// The local clock reads earlier than the lease grant: it stepped
		// backward, so the deadline lives in a dead timebase and could
		// overstate validity by the step size. Kill the lease.
		n.invalidateLeaseLocked()
		return 0, false
	}
	if !now.Before(n.leaseUntil) {
		return 0, false // expired; the next clean quorum round re-arms it
	}
	n.statLeaseReads.Add(1)
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_lease_reads", n.mtrLabel)
	}
	return n.commitIndex, true
}

// leaseDuration is how long past a confirmed round's start the leader
// may serve lease reads; <= 0 means leases can never arm (e.g. a drift
// bound as large as the election timeout).
func (n *Node) leaseDuration() time.Duration {
	drift := n.cfg.MaxClockDrift
	if drift < 0 {
		drift = 0 // unsafe mode: no slack, no detection
	}
	return n.cfg.ElectionTimeoutMin - drift
}

// invalidateLeaseLocked kills a live lease (step-down, clock trouble,
// runtime disable); reads fall back to full confirmation rounds until a
// clean quorum round re-arms it.
func (n *Node) invalidateLeaseLocked() {
	if n.leaseUntil.IsZero() {
		return
	}
	n.leaseFrom = time.Time{}
	n.leaseUntil = time.Time{}
	n.statLeaseExpiries.Add(1)
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_lease_expiries", n.mtrLabel)
	}
}

// observeAckLocked folds one same-term append ack into the lease:
// record the round the follower confirmed, check its clock echo against
// the drift bound, and extend — or kill — the lease accordingly.
func (n *Node) observeAckLocked(from int, msg appendEntriesResp) {
	if !n.leaseOn.Load() || n.leaseDuration() <= 0 {
		return
	}
	if msg.Seq > n.ackSeq[from] {
		n.ackSeq[from] = msg.Seq
	}
	if n.cfg.MaxClockDrift >= 0 {
		skew := n.cfg.Clock.Now().Sub(msg.LocalTime)
		if skew < 0 {
			skew = -skew
		}
		// The estimate includes one message latency, so the effective
		// tolerance is MaxClockDrift minus the network delay — a
		// conservative error: false positives only drop the lease.
		bad := skew > n.cfg.MaxClockDrift
		n.skewBad[from] = bad
		if bad {
			n.invalidateLeaseLocked()
			return
		}
	}
	n.maybeExtendLeaseLocked()
}

// maybeExtendLeaseLocked arms the lease through
// leaseDuration past the start of the newest heartbeat round confirmed
// by a quorum of clean-clocked followers (the leader is the quorum's
// +1). The window is overwritten, not maxed: after a backward clock
// step, newer rounds carry earlier local timestamps, and keeping the
// pre-step deadline would overstate validity by the step size.
func (n *Node) maybeExtendLeaseLocked() {
	dur := n.leaseDuration()
	if dur <= 0 {
		return
	}
	need := len(n.peers) / 2 // follower acks needed for a quorum
	var q uint64
	if need == 0 {
		q = n.hbSeq // single node: every broadcast self-confirms
	} else {
		seqs := n.quorumScratch[:0]
		for _, p := range n.peers {
			if p == n.id {
				continue
			}
			if n.skewBad[p] {
				seqs = append(seqs, 0)
				continue
			}
			seqs = append(seqs, n.ackSeq[p])
		}
		n.quorumScratch = seqs
		q = kthLargest(seqs, need)
	}
	if q == 0 || q <= n.lastLeaseRound {
		return
	}
	start, ok := n.roundStart[q]
	if !ok {
		return // round pruned: too old for its confirmation to matter
	}
	n.lastLeaseRound = q
	n.leaseTerm = n.currentTerm
	n.leaseFrom = start
	n.leaseUntil = start.Add(dur)
	for seq := range n.roundStart {
		if seq <= q {
			delete(n.roundStart, seq)
		}
	}
}

// recordRoundLocked timestamps a heartbeat round at broadcast for lease
// extension and prunes rounds too old to still extend anything.
func (n *Node) recordRoundLocked() {
	now := n.cfg.Clock.Now()
	n.roundStart[n.hbSeq] = now
	horizon := now.Add(-n.cfg.ElectionTimeoutMin)
	for seq, t := range n.roundStart {
		if t.Before(horizon) {
			delete(n.roundStart, seq)
		}
	}
	if len(n.peers) == 1 {
		n.maybeExtendLeaseLocked()
	}
}

// resetLeaseStateLocked drops all lease bookkeeping (entering or
// leaving leadership); it does not count an expiry by itself.
func (n *Node) resetLeaseStateLocked() {
	n.leaseFrom = time.Time{}
	n.leaseUntil = time.Time{}
	n.lastLeaseRound = 0
	n.roundStart = make(map[uint64]time.Time)
	n.ackSeq = make(map[int]uint64)
	n.skewBad = make(map[int]bool)
}

func (n *Node) handleReadIndexReq(from int, msg readIndexReq) {
	n.mu.Lock()
	if n.state != Leader {
		n.mu.Unlock()
		n.trans.send(n.id, from, readIndexResp{ID: msg.ID, OK: false}.wire())
		return
	}
	if idx, ok := n.leaseReadLocked(); ok {
		n.mu.Unlock()
		n.trans.send(n.id, from, readIndexResp{ID: msg.ID, Index: idx, OK: true}.wire())
		return
	}
	n.startReadLocked(nil, &remoteRead{node: from, id: msg.ID})
	n.mu.Unlock()
}

func (n *Node) handleReadIndexResp(_ int, msg readIndexResp) {
	n.mu.Lock()
	ch, ok := n.readWaiters[msg.ID]
	delete(n.readWaiters, msg.ID)
	n.mu.Unlock()
	if !ok {
		return // caller timed out and deregistered
	}
	res := readIndexResult{index: msg.Index}
	if !msg.OK {
		res.err = ErrNoLeader
	}
	select {
	case ch <- res:
	default:
	}
}

// Log returns a copy of the node's log (for verification in tests).
func (n *Node) Log() []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Entry, len(n.log))
	copy(out, n.log)
	return out
}

// Propose appends cmd to the replicated log if this node is the leader.
// It returns the index and term assigned to the entry. Commitment is
// reported asynchronously via ApplyCh.
func (n *Node) Propose(cmd []byte) (index, term uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return 0, 0, ErrStopped
	}
	if n.state != Leader {
		return 0, 0, ErrNotLeader
	}
	e := n.appendLocked(cmd)
	// Replicate eagerly rather than waiting for the heartbeat tick.
	n.wakeLocked(wakePropose)
	n.broadcastAppendLocked()
	return e.Index, e.Term, nil
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
	<-n.drainDone
}

func (n *Node) run() {
	defer close(n.done)
	for {
		select {
		case <-n.stopCh:
			n.mu.Lock()
			n.electionTimer.Stop()
			n.heartbeat.Stop()
			n.trans.detach(n.id)
			n.mu.Unlock()
			return
		case m := <-n.inbox:
			n.handle(m)
		case <-n.electionTimer.C():
			n.onElectionTimeout()
		case <-n.heartbeat.C():
			n.onHeartbeat()
		}
	}
}

// drainApplies is the single goroutine feeding applyCh. Handlers enqueue
// committed entries under mu; one ordered drainer replaces the old
// per-broadcast deliver goroutines, whose interleaving could reorder
// applies, and keeps message handling from blocking on a slow consumer.
func (n *Node) drainApplies() {
	defer close(n.drainDone)
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.applyKick:
		}
		for {
			n.mu.Lock()
			pending := n.applyQueue
			n.applyQueue = nil
			n.mu.Unlock()
			if len(pending) == 0 {
				break
			}
			for _, a := range pending {
				select {
				case n.applyCh <- a:
				case <-n.stopCh:
					return
				}
			}
		}
	}
}

// enqueueAppliesLocked queues newly committed applies for the drainer.
func (n *Node) enqueueAppliesLocked(applies []Apply) {
	if len(applies) == 0 {
		return
	}
	n.applyQueue = append(n.applyQueue, applies...)
	select {
	case n.applyKick <- struct{}{}:
	default:
	}
}

func (n *Node) randomElectionTimeout() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	spread := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	return n.cfg.ElectionTimeoutMin + time.Duration(n.rng.Int63n(int64(spread)+1))
}

// resetElectionTimerLocked gives a non-leader a fresh randomized election
// timeout on the fast cadence.
func (n *Node) resetElectionTimerLocked() { n.armElectionLocked(false) }

// armElectionLocked re-arms the election timer at a fresh randomized
// timeout — idleFactor times it when the node has just accepted a round's
// idle offer — and records which cadence the timer is on.
func (n *Node) armElectionLocked(idle bool) {
	spread := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin + time.Duration(n.rng.Int63n(int64(spread)+1))
	if idle {
		d *= idleFactor
	}
	n.idle = idle
	clock.Rearm(n.electionTimer, d)
}

func (n *Node) onElectionTimeout() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == Leader {
		return // stale timer
	}
	// Become candidate for a new term.
	n.currentTerm++
	n.state = Candidate
	n.votedFor = n.id
	n.leaderID = -1
	n.votes = map[int]bool{n.id: true}
	n.persistHardStateLocked()
	n.resetElectionTimerLocked()

	lastIdx := n.lastIndexLocked()
	lastTerm := n.termAtLocked(lastIdx)
	req := requestVote{
		Term:         n.currentTerm,
		Candidate:    n.id,
		LastLogIndex: lastIdx,
		LastLogTerm:  lastTerm,
	}
	n.sendPeers(req.wire())
	// Single-node cluster wins immediately.
	n.maybeBecomeLeaderLocked()
}

func (n *Node) handle(m message) {
	switch m.kind {
	case msgRequestVote:
		n.handleRequestVote(m.from, m.vote)
	case msgRequestVoteResp:
		n.handleRequestVoteResp(m.from, m.voteResp)
	case msgAppendEntries:
		n.handleAppendEntries(m.from, m.app)
	case msgAppendEntriesResp:
		n.handleAppendEntriesResp(m.from, m.appResp)
	case msgInstallSnapshot:
		n.handleInstallSnapshot(m.from, m.snap)
	case msgInstallSnapshotResp:
		n.handleInstallSnapshotResp(m.from, m.snapResp)
	case msgReadIndexReq:
		n.handleReadIndexReq(m.from, m.read)
	case msgReadIndexResp:
		n.handleReadIndexResp(m.from, m.readResp)
	case msgWake:
		n.handleWake(m.wake)
	}
}

// handleInstallSnapshot accumulates one chunk of a streamed snapshot on
// a lagging follower, installing the whole image on the final chunk.
func (n *Node) handleInstallSnapshot(from int, msg installSnapshot) {
	n.mu.Lock()
	if msg.Term > n.currentTerm ||
		(msg.Term == n.currentTerm && n.state != Follower) {
		n.becomeFollowerLocked(msg.Term, msg.Leader)
	}
	if msg.Term < n.currentTerm {
		resp := installSnapshotResp{Term: n.currentTerm}
		n.mu.Unlock()
		n.trans.send(n.id, from, resp.wire())
		return
	}
	n.leaderID = msg.Leader
	n.lastContact = n.cfg.Clock.Now()
	n.resetElectionTimerLocked()

	if msg.LastIndex <= n.commitIndex {
		// Stale snapshot: we already hold everything it covers. Done=true
		// with our commit index lets the leader advance matchIndex and
		// resume ordinary appends.
		n.pendingSnap = nil
		resp := installSnapshotResp{Term: n.currentTerm, LastIndex: n.commitIndex, NextOffset: msg.Total, Done: true}
		n.mu.Unlock()
		n.trans.send(n.id, from, resp.wire())
		return
	}
	p := n.pendingSnap
	if p == nil || p.index != msg.LastIndex || msg.Offset != len(p.data) {
		if msg.Offset != 0 {
			// Chunk loss, duplication, or a transfer restart: answer with
			// the offset we actually need so the leader resynchronizes.
			nextOff := 0
			if p != nil && p.index == msg.LastIndex {
				nextOff = len(p.data)
			}
			resp := installSnapshotResp{Term: n.currentTerm, LastIndex: msg.LastIndex, NextOffset: nextOff}
			n.mu.Unlock()
			n.trans.send(n.id, from, resp.wire())
			return
		}
		p = &pendingSnapshot{index: msg.LastIndex, term: msg.LastTerm}
		n.pendingSnap = p
	}
	p.data = append(p.data, msg.Data...)
	if !msg.Done {
		resp := installSnapshotResp{Term: n.currentTerm, LastIndex: msg.LastIndex, NextOffset: len(p.data)}
		n.mu.Unlock()
		n.trans.send(n.id, from, resp.wire())
		return
	}
	// Final chunk: discard the log and adopt the snapshot wholesale. The
	// accumulated buffer is exclusively ours, so node state and the Apply
	// share it without copying.
	n.pendingSnap = nil
	n.log = nil
	n.snapIndex = p.index
	n.snapTerm = p.term
	n.snapshot = p.data
	n.commitIndex = p.index
	n.lastApplied = p.index
	n.store.InstallSnapshot(p.index, p.term, p.data)
	n.enqueueAppliesLocked([]Apply{{IsSnapshot: true, Snapshot: p.data, SnapIndex: p.index}})
	resp := installSnapshotResp{Term: n.currentTerm, LastIndex: p.index, NextOffset: len(p.data), Done: true}
	n.mu.Unlock()
	n.trans.send(n.id, from, resp.wire())
}

// handleInstallSnapshotResp clocks an outbound snapshot stream forward
// (one chunk in flight per follower) and, on completion, resumes
// ordinary appends after the installed index.
func (n *Node) handleInstallSnapshotResp(from int, msg installSnapshotResp) {
	n.mu.Lock()
	if msg.Term > n.currentTerm {
		n.becomeFollowerLocked(msg.Term, -1)
		n.mu.Unlock()
		return
	}
	if n.state != Leader || msg.Term != n.currentTerm {
		n.mu.Unlock()
		return
	}
	if msg.Done {
		delete(n.snapXfers, from)
		if msg.LastIndex > n.matchIndex[from] {
			n.matchIndex[from] = msg.LastIndex
		}
		if next := n.matchIndex[from] + 1; n.nextIndex[from] < next {
			n.nextIndex[from] = next
		}
		n.advanceCommitLocked()
		if n.lastIndexLocked() >= n.nextIndex[from] {
			n.sendAppendLocked(from)
		}
		n.enqueueAppliesLocked(n.takeAppliesLocked())
		n.mu.Unlock()
		return
	}
	x := n.snapXfers[from]
	if x == nil || x.index != n.snapIndex {
		// The transfer restarted (new compaction) or was abandoned; the
		// next heartbeat re-probes from the current snapshot.
		n.mu.Unlock()
		return
	}
	if msg.LastIndex == x.index && msg.NextOffset >= 0 && msg.NextOffset <= len(x.data) {
		x.offset = msg.NextOffset
		n.sendSnapshotLocked(from)
	}
	n.mu.Unlock()
}

func (n *Node) handleRequestVote(from int, msg requestVote) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// A follower that heard from the leader of its term less than the
	// minimum election timeout ago believes that leader is alive: it
	// neither adopts the candidate's term nor votes (Raft thesis §4.2.3
	// and §6.4.1). This is the promise the check-quorum lease is made of —
	// a candidate cut off from a live leader cannot be elected by the
	// followers that still hear it while its lease runs. The window is the
	// base timeout on either cadence, and it is closed by a reading that
	// far from the contact in either direction: a local clock that stepped
	// back must not keep the node from voting for as long as the step.
	if since := n.cfg.Clock.Now().Sub(n.lastContact); n.state == Follower &&
		!n.lastContact.IsZero() && since.Abs() < n.cfg.ElectionTimeoutMin {
		n.trans.send(n.id, from, requestVoteResp{Term: n.currentTerm}.wire())
		return
	}
	// Somebody suspects the leader: whatever comes of it, this node is
	// back on the fast cadence.
	woke := n.wakeLocked(wakeVote)
	if msg.Term > n.currentTerm {
		n.becomeFollowerLocked(msg.Term, -1)
	}
	if woke && n.state == Leader {
		n.broadcastAppendLocked() // a stale candidate hears the leader at once
	}
	granted := false
	if msg.Term == n.currentTerm && (n.votedFor == -1 || n.votedFor == msg.Candidate) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours (§5.4.1).
		lastIdx := n.lastIndexLocked()
		lastTerm := n.termAtLocked(lastIdx)
		if msg.LastLogTerm > lastTerm ||
			(msg.LastLogTerm == lastTerm && msg.LastLogIndex >= lastIdx) {
			granted = true
			n.votedFor = msg.Candidate
			n.persistHardStateLocked()
			n.resetElectionTimerLocked()
		}
	}
	n.trans.send(n.id, from, requestVoteResp{Term: n.currentTerm, Granted: granted}.wire())
}

func (n *Node) handleRequestVoteResp(from int, msg requestVoteResp) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Term > n.currentTerm {
		n.becomeFollowerLocked(msg.Term, -1)
		return
	}
	if n.state != Candidate || msg.Term != n.currentTerm || !msg.Granted {
		return
	}
	n.votes[from] = true
	n.maybeBecomeLeaderLocked()
}

func (n *Node) maybeBecomeLeaderLocked() {
	if n.state != Candidate || len(n.votes) <= len(n.peers)/2 {
		return
	}
	n.state = Leader
	n.leaderID = n.id
	for _, p := range n.peers {
		n.nextIndex[p] = n.lastIndexLocked() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = n.lastIndexLocked()
	n.snapXfers = make(map[int]*snapXfer)
	n.pendingSnap = nil
	n.resetLeaseStateLocked()
	n.electionTimer.Stop()
	n.idle = false
	n.heartbeat.Reset(n.cfg.HeartbeatInterval)
	// Announce leadership immediately.
	n.broadcastAppendLocked()
}

func (n *Node) becomeFollowerLocked(term uint64, leader int) {
	wasLeader := n.state == Leader
	n.state = Follower
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = -1
		n.persistHardStateLocked()
	}
	n.leaderID = leader
	n.leaderSeq, n.lastContact = 0, time.Time{} // the caller records the new leader's, if this is one
	if wasLeader {
		n.heartbeat.Stop()
		n.failPendingReadsLocked()
		n.invalidateLeaseLocked()
		n.resetLeaseStateLocked()
		n.snapXfers = make(map[int]*snapXfer)
	}
	n.resetElectionTimerLocked()
}

func (n *Node) handleAppendEntries(from int, msg appendEntries) {
	n.mu.Lock()
	if msg.Term > n.currentTerm ||
		(msg.Term == n.currentTerm && n.state != Follower) {
		n.becomeFollowerLocked(msg.Term, msg.Leader)
	}
	if msg.Term < n.currentTerm {
		resp := appendEntriesResp{Term: n.currentTerm, Success: false}
		n.mu.Unlock()
		n.trans.send(n.id, from, resp.wire())
		return
	}
	// Valid leader for our term.
	n.leaderID = msg.Leader
	now := n.cfg.Clock.Now()
	fresh := msg.Seq >= n.leaderSeq
	if fresh {
		n.leaderSeq, n.lastContact = msg.Seq, now
	}

	// Log consistency check. Anything at or below the snapshot index is
	// committed state here, so a PrevLogIndex inside the snapshot is
	// consistent by construction.
	consistent := msg.PrevLogIndex <= n.snapIndex ||
		(msg.PrevLogIndex <= n.lastIndexLocked() &&
			n.termAtLocked(msg.PrevLogIndex) == msg.PrevLogTerm)
	if !consistent {
		conflict := msg.PrevLogIndex
		if last := n.lastIndexLocked(); conflict > last+1 {
			conflict = last + 1
		}
		if conflict == 0 {
			conflict = 1
		}
		// A consistency failure still acknowledges the sender's
		// leadership for this term, so it echoes Seq and counts toward
		// read-index quorums.
		if fresh {
			n.resetElectionTimerLocked()
		}
		resp := appendEntriesResp{Term: n.currentTerm, Success: false, ConflictIndex: conflict, Seq: msg.Seq, LocalTime: now}
		n.mu.Unlock()
		n.trans.send(n.id, from, resp.wire())
		return
	}
	// Append new entries, truncating on conflict (§5.3). Entries at or
	// below the snapshot index are already committed and compacted.
	var changed uint64 // the first log index this message wrote, if any
	for _, e := range msg.Entries {
		if e.Index <= n.snapIndex {
			continue
		}
		if e.Index <= n.lastIndexLocked() {
			if n.termAtLocked(e.Index) == e.Term {
				continue
			}
			n.log = n.log[:e.Index-n.snapIndex-1]
		}
		n.log = append(n.log, e)
		if changed == 0 {
			changed = e.Index
		}
	}
	if changed > 0 {
		n.store.AppendEntries(changed, n.log[changed-n.snapIndex-1:])
	}
	// Advance commit index.
	if msg.LeaderCommit > n.commitIndex {
		last := n.lastIndexLocked()
		n.commitIndex = msg.LeaderCommit
		if n.commitIndex > last {
			n.commitIndex = last
		}
	}
	match := msg.PrevLogIndex + uint64(len(msg.Entries))
	// The idle offer is accepted only by a follower that sees for itself
	// what the leader saw: nothing in the message, nothing in its own log
	// beyond the leader's last index, all of it committed.
	idle := fresh && msg.Idle && len(msg.Entries) == 0 &&
		n.lastIndexLocked() == msg.PrevLogIndex && n.commitIndex == msg.PrevLogIndex
	if fresh {
		n.armElectionLocked(idle)
	}
	resp := appendEntriesResp{Term: n.currentTerm, Success: true, MatchIndex: match, Seq: msg.Seq, LocalTime: now, Idle: idle}
	n.enqueueAppliesLocked(n.takeAppliesLocked())
	n.mu.Unlock()
	n.trans.send(n.id, from, resp.wire())
}

func (n *Node) handleAppendEntriesResp(from int, msg appendEntriesResp) {
	n.mu.Lock()
	if msg.Term > n.currentTerm {
		n.becomeFollowerLocked(msg.Term, -1)
		n.mu.Unlock()
		return
	}
	if n.state != Leader || msg.Term != n.currentTerm {
		n.mu.Unlock()
		return
	}
	// Any same-term response — success or log-consistency failure — is a
	// leadership ack for the heartbeat round it echoes; credit it to the
	// launched read rounds registered at or before that round, and fold
	// it into the check-quorum lease (extension, or skew invalidation).
	if msg.Seq > 0 {
		for _, pr := range n.pendingReads {
			if pr.started && msg.Seq >= pr.seq {
				pr.acks[from] = true
			}
		}
		n.observeAckLocked(from, msg)
		n.maybeCompleteReadsLocked()
		n.observeRoundAckLocked(from, msg)
	}
	if msg.Success {
		if msg.MatchIndex > n.matchIndex[from] {
			n.matchIndex[from] = msg.MatchIndex
		}
		if next := n.matchIndex[from] + 1; n.nextIndex[from] < next {
			n.nextIndex[from] = next
		}
		n.advanceCommitLocked()
		// Pipelining: an ack frees window space, so ship pending backlog
		// immediately instead of waiting for the next heartbeat tick.
		// Only when the window is open — an over-eager empty probe racing
		// in-flight entries would draw a reject and rewind the window.
		if n.pipelined() && n.lastIndexLocked() >= n.nextIndex[from] {
			if infE, infB := n.inflightLocked(from); infE < uint64(n.cfg.MaxInflightEntries) && infB < n.cfg.MaxInflightBytes {
				n.sendAppendLocked(from)
			}
		}
	} else {
		n.statRejects.Add(1)
		if reg := n.mtr.Load(); reg != nil {
			reg.Inc("raft_append_rejects", n.mtrLabel)
		}
		// Back up and retry. The optimistic window collapses to the
		// conflict point, but never below what the follower already
		// acknowledged.
		next := msg.ConflictIndex
		if next == 0 || next >= n.nextIndex[from] {
			if n.nextIndex[from] > 1 {
				next = n.nextIndex[from] - 1
			} else {
				next = 1
			}
		}
		if next <= n.matchIndex[from] {
			next = n.matchIndex[from] + 1
		}
		n.nextIndex[from] = next
		n.sendAppendLocked(from)
	}
	n.enqueueAppliesLocked(n.takeAppliesLocked())
	n.mu.Unlock()
}

// advanceCommitLocked moves commitIndex to the highest index replicated on
// a majority whose entry is from the current term (§5.4.2).
func (n *Node) advanceCommitLocked() {
	matches := n.quorumScratch[:0]
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	n.quorumScratch = matches
	majority := kthLargest(matches, len(n.peers)/2+1)
	if majority > n.commitIndex && n.termAtLocked(majority) == n.currentTerm {
		n.commitIndex = majority
		// Reads whose quorum already acked may have been waiting for the
		// current term's first commit (the no-op barrier).
		n.maybeCompleteReadsLocked()
	}
}

// kthLargest returns the k-th largest (1 = the largest) of vals, sorting
// them in place: the highest value that at least k of the peers have reached.
func kthLargest(vals []uint64, k int) uint64 {
	slices.Sort(vals)
	return vals[len(vals)-k]
}

// broadcastAppendLocked starts a round because something is asked of the
// log — a proposal, a read, an election won, a wake — so it carries no
// idle offer; only the heartbeat tick (onHeartbeat) starts one that does.
func (n *Node) broadcastAppendLocked() { n.startRoundLocked(false) }

// startRoundLocked sends every follower an append in a new round, with
// the idle offer if offerIdle.
func (n *Node) startRoundLocked(offerIdle bool) {
	n.hbSeq++ // new heartbeat round: later acks confirm leadership now
	n.roundIdle = offerIdle
	n.roundAcked, n.idleAgreed = 0, 0
	if n.leaseOn.Load() && n.leaseDuration() > 0 {
		n.recordRoundLocked()
	}
	for _, p := range n.peers {
		if p != n.id {
			n.sendAppendLocked(p)
		}
	}
	// A single-node cluster commits by itself.
	n.advanceCommitLocked()
	n.enqueueAppliesLocked(n.takeAppliesLocked())
}

// pipelined reports whether replication uses an in-flight window
// (false = the stop-and-wait A/B mode).
func (n *Node) pipelined() bool { return n.cfg.MaxInflightEntries > 1 }

// entryBytes approximates an entry's wire cost for window accounting.
func entryBytes(e Entry) int { return len(e.Cmd) + 16 }

// inflightLocked reports the unacknowledged pipeline window to a
// follower: entries and bytes sent beyond its acknowledged match index.
func (n *Node) inflightLocked(to int) (entries uint64, bytes int) {
	next := n.nextIndex[to]
	if next == 0 {
		next = 1
	}
	match := n.matchIndex[to]
	if next-1 <= match {
		return 0, 0
	}
	lo := match + 1
	if lo <= n.snapIndex {
		lo = n.snapIndex + 1
	}
	for i := lo; i < next && i <= n.lastIndexLocked(); i++ {
		bytes += entryBytes(n.entryAtLocked(i))
	}
	return next - 1 - match, bytes
}

func (n *Node) sendAppendLocked(to int) {
	next := n.nextIndex[to]
	if next == 0 {
		next = 1
	}
	if next <= n.snapIndex {
		// The follower needs entries that were compacted away: stream the
		// snapshot instead (§7, InstallSnapshot).
		n.sendSnapshotLocked(to)
		return
	}
	prevIdx := next - 1
	msg := appendEntries{
		Term:         n.currentTerm,
		Leader:       n.id,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  n.termAtLocked(prevIdx),
		LeaderCommit: n.commitIndex,
		Seq:          n.hbSeq,
		Idle:         n.roundIdle,
	}
	if last := n.lastIndexLocked(); last >= next {
		if !n.pipelined() {
			// Stop-and-wait: re-ship the full pending suffix; nextIndex
			// moves only when the follower acknowledges it.
			entries := n.log[next-n.snapIndex-1:]
			msg.Entries = make([]Entry, len(entries))
			copy(msg.Entries, entries)
		} else if infE, infB := n.inflightLocked(to); infE < uint64(n.cfg.MaxInflightEntries) && infB < n.cfg.MaxInflightBytes {
			end := last
			if maxE := uint64(n.cfg.MaxAppendEntries); maxE > 0 && end >= next+maxE {
				end = next + maxE - 1
			}
			if room := uint64(n.cfg.MaxInflightEntries) - infE; end >= next+room {
				end = next + room - 1
			}
			budget := n.cfg.MaxInflightBytes - infB
			entries := make([]Entry, 0, end-next+1)
			for i := next; i <= end; i++ {
				e := n.entryAtLocked(i)
				cost := entryBytes(e)
				if len(entries) > 0 && cost > budget {
					break
				}
				budget -= cost
				entries = append(entries, e)
			}
			msg.Entries = entries
			// Optimistic advance: the next send continues after this
			// window; a consistency reject rewinds it.
			n.nextIndex[to] = next + uint64(len(entries))
		}
		// Window full: fall through to an empty append — its ack moves
		// matchIndex and reopens the window.
	}
	n.countAppendLocked(to, len(msg.Entries))
	n.trans.send(n.id, to, msg.wire())
}

// countAppendLocked tallies one outbound append for ReplicationStats
// and, when instrumented, the registry (entries-per-append ratio and
// in-flight window depth).
func (n *Node) countAppendLocked(to, entries int) {
	n.statAppends.Add(1)
	n.statEntries.Add(uint64(entries))
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_appends_sent", n.mtrLabel)
		reg.Add("raft_entries_sent", float64(entries), n.mtrLabel)
		inf, _ := n.inflightLocked(to)
		reg.SetGauge("raft_inflight_entries", float64(inf), n.mtrLabel)
	}
}

// sendSnapshotLocked ships the next chunk of the leader's snapshot to a
// follower whose needed entries were compacted away. One chunk per
// transfer is in flight; heartbeat ticks re-send the current chunk (the
// follower's NextOffset makes duplicates harmless) and each ack clocks
// the stream forward. Chunks alias the immutable snapshot bytes — no
// per-send copy of the full image.
func (n *Node) sendSnapshotLocked(to int) {
	x := n.snapXfers[to]
	if x == nil || x.index != n.snapIndex {
		x = &snapXfer{index: n.snapIndex, term: n.snapTerm, data: n.snapshot}
		n.snapXfers[to] = x
	}
	size := n.cfg.SnapChunkSize
	if size <= 0 || size > len(x.data)-x.offset {
		size = len(x.data) - x.offset
	}
	end := x.offset + size
	n.statSnapChunks.Add(1)
	n.statSnapBytes.Add(uint64(size))
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_snapshot_chunks_sent", n.mtrLabel)
		reg.Add("raft_snapshot_bytes_sent", float64(size), n.mtrLabel)
	}
	n.trans.send(n.id, to, installSnapshot{
		Term:      n.currentTerm,
		Leader:    n.id,
		LastIndex: x.index,
		LastTerm:  x.term,
		Offset:    x.offset,
		Data:      x.data[x.offset:end],
		Done:      end == len(x.data),
		Total:     len(x.data),
	}.wire())
}

// takeAppliesLocked collects newly committed entries for delivery.
func (n *Node) takeAppliesLocked() []Apply {
	var out []Apply
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		e := n.entryAtLocked(n.lastApplied)
		out = append(out, Apply{Entry: e})
	}
	return out
}

func (n *Node) lastIndexLocked() uint64 { return n.snapIndex + uint64(len(n.log)) }

func (n *Node) termAtLocked(idx uint64) uint64 {
	switch {
	case idx == n.snapIndex:
		return n.snapTerm
	case idx > n.snapIndex && idx <= n.lastIndexLocked():
		return n.log[idx-n.snapIndex-1].Term
	default:
		return 0
	}
}

// entryAtLocked returns the log entry at idx (idx must be in
// (snapIndex, lastIndex]).
func (n *Node) entryAtLocked(idx uint64) Entry {
	return n.log[idx-n.snapIndex-1]
}

// appendLocked adds one entry to the end of the leader's own log and
// persists it.
func (n *Node) appendLocked(cmd []byte) Entry {
	e := Entry{Index: n.lastIndexLocked() + 1, Term: n.currentTerm, Cmd: cmd}
	n.log = append(n.log, e)
	n.store.AppendEntries(e.Index, n.log[len(n.log)-1:])
	n.matchIndex[n.id] = e.Index
	return e
}

func (n *Node) persistHardStateLocked() {
	n.store.SetHardState(n.currentTerm, n.votedFor)
}

// Compact discards log entries through index, recording snapshot as the
// application state at that point (§7 of the Raft paper). index must not
// exceed the node's applied index; compacting at or below the current
// snapshot is a no-op.
func (n *Node) Compact(index uint64, snapshot []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if index <= n.snapIndex {
		return nil
	}
	if index > n.lastApplied {
		return fmt.Errorf("raft: compact index %d beyond applied %d", index, n.lastApplied)
	}
	term := n.termAtLocked(index)
	tail := make([]Entry, len(n.log[index-n.snapIndex:]))
	copy(tail, n.log[index-n.snapIndex:])
	n.log = tail
	n.snapIndex = index
	n.snapTerm = term
	n.snapshot = append([]byte(nil), snapshot...)
	n.store.Compact(index, term, n.snapshot)
	return nil
}

// Snapshot returns the node's persisted snapshot and the index it covers
// (nil, 0 when no compaction has happened). Applications restore from it
// before consuming the apply channel after a restart.
func (n *Node) Snapshot() ([]byte, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.snapIndex == 0 {
		return nil, 0
	}
	return append([]byte(nil), n.snapshot...), n.snapIndex
}

// LogLen reports the in-memory (uncompacted) log length.
func (n *Node) LogLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log)
}
