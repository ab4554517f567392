// Package raft implements the Raft consensus protocol (Ongaro &
// Ousterhout, USENIX ATC 2014) behind the platform's replicated etcd-style
// store: leader election, log replication with an optimistic nextIndex,
// snapshot install for a follower behind the compacted log,
// quorum-amortized reads with a check-quorum lease, and a heartbeat
// cadence that slows down while the log is settled.
//
// A node is a core and a driver. The core (this file, election.go,
// replicate.go, snapshot.go, read.go and cadence.go) is a step function
// with no clock, no lock and no goroutine: each input — a message, a timer
// firing, a client call — appends its effects to one ordered list. The
// driver (node.go) owns the timers, the transport, the storage and the
// apply channel, and carries the effects out in that order, so every
// persist happens before any send it precedes. README "Raft: core and
// driver" has the details.
package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

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
	// Cmd is the proposer's payload, by reference: the log, its storage,
	// the messages that ship it and the applied entry all share the bytes
	// Propose was given, and raft never writes to them. An application may
	// keep slices of it for as long as it likes.
	Cmd []byte
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

// inputKind says what a core is asked to step on.
type inputKind uint8

const (
	inMessage         inputKind = iota + 1 // msg arrived
	inElectionTimeout                      // the election timer fired
	inHeartbeat                            // the heartbeat ticked
	inPropose                              // append data as a new entry
	inRead                                 // register read id
	inWake                                 // a client found no service (Node.Wake)
	inCompact                              // compact through index, with data as the snapshot
)

// input is one thing that happens to a node, at now on the node's clock.
type input struct {
	kind  inputKind
	now   time.Time
	msg   message
	data  []byte
	id    uint64
	index uint64
}

// effectKind says what an effect asks the driver to do.
type effectKind uint8

const (
	persistHardState effectKind = iota + 1 // store term and vote
	persistEntries                         // store entries as the log from index on
	persistSnapshot                        // replace the log with snapshot data at index/term
	persistCompact                         // replace the log through index/term with data
	send                                   // send msg to node to
	armElection                            // re-arm the election timer at d; 0 stops it
	setHeartbeat                           // tick the heartbeat every d; 0 stops it
	deliver                                // queue apply for the apply channel
	readDone                               // answer read id with index, or err
)

// effect is one thing a step asks of the driver. Entries and data alias
// the core's log and snapshot: no later part of the step that made the
// effect changes what they point at (a step persists its log change after
// making it, and snapshots are replaced, never mutated).
type effect struct {
	kind    effectKind
	to      int
	vote    int
	msg     message
	d       time.Duration
	index   uint64
	term    uint64
	id      uint64
	entries []Entry
	data    []byte
	apply   Apply
	err     error
}

// core is one node's protocol state. It reads no clock (a step's time is
// its input's now), takes no lock and starts no goroutine; Step appends
// what the node must do to out, which the driver empties after each step.
type core struct {
	id    int
	peers []int
	cfg   Config
	rng   *rand.Rand
	now   time.Time // the current input's
	out   []effect

	state       State
	currentTerm uint64
	votedFor    int // -1 = none
	// log holds the entries with Index > snapIndex. An append ships a
	// window of it, not a copy (sendAppend), so a slot that has been
	// shipped is never written in place: the log only grows at its end,
	// and whatever shortens it — compaction, a snapshot install, a
	// conflict truncation — moves it to a new array first.
	log         []Entry
	snapIndex   uint64
	snapTerm    uint64
	snapshot    []byte
	commitIndex uint64
	lastApplied uint64
	leaderID    int

	// Leader volatile state: prs[i] is the leader's record of peers[i].
	prs   []progress
	votes map[int]bool

	// Read path and lease (read.go). roundStart holds the heartbeat rounds
	// recent enough to extend the lease, oldest first.
	hbSeq        uint64
	pendingReads []*pendingRead
	barrierTerm  uint64
	leaseFrom    time.Time
	leaseUntil   time.Time
	leaseTerm    uint64
	roundStart   []round

	// quorumScratch holds one value per peer for kthLargest, so that the
	// quorum math on every append ack allocates nothing.
	quorumScratch []uint64

	// Cadence (cadence.go). idle says the node's own timer is on the idle
	// cadence — the heartbeat of a leader, the election timer of anyone
	// else; roundIdle that round hbSeq carried the idle offer. On a
	// follower, leaderSeq is the newest round it has seen from the leader
	// of its term — an append from an older one, duplicated or overtaken on
	// the way, says nothing about the leader now and leaves the timer
	// alone — and lastContact when it last accepted a round at least that
	// new, or a snapshot.
	idle        bool
	roundIdle   bool
	leaderSeq   uint64
	lastContact time.Time

	repl     ReplicationStats
	reads    ReadStats
	mtr      *metrics.Registry
	mtrLabel string
}

// progress is a leader's record of one member, zeroed as it takes office.
type progress struct {
	match, next uint64 // the member's log holds through match; send from next
	acked       uint64 // the newest heartbeat round it acked
	idleAcked   uint64 // the newest round whose idle offer it accepted while the offer stood
	skewed      bool   // its last clock echo was outside MaxClockDrift
}

// round is a heartbeat round's sequence and its broadcast time.
type round struct {
	seq   uint64
	start time.Time
}

// newCore recovers a node from its persisted state, with the effects of
// booting in out. Entries at or below the snapshot index were compacted
// away; applying resumes after the snapshot.
func newCore(id int, peers []int, cfg Config, ps PersistentState) *core {
	c := &core{
		id:          id,
		peers:       peers,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		state:       Follower,
		currentTerm: ps.Term,
		votedFor:    ps.VotedFor,
		log:         ps.Log,
		snapIndex:   ps.SnapIndex,
		snapTerm:    ps.SnapTerm,
		snapshot:    ps.Snapshot,
		commitIndex: ps.SnapIndex,
		lastApplied: ps.SnapIndex,
		leaderID:    -1,
		prs:         make([]progress, len(peers)),
		mtrLabel:    fmt.Sprintf("node%d", id),
	}
	// The others may be on the idle cadence, where the leader's next round
	// is further off than this node's first timeout: say so before it runs.
	c.sendPeers(wake{Start: true}.wire())
	return c
}

// Step applies one input, appending its effects to out. Only a proposal
// or a compaction can fail; a failed one has no effects.
func (c *core) Step(in input) error {
	c.now = in.now
	switch in.kind {
	case inMessage:
		c.handle(in.msg)
	case inElectionTimeout:
		c.onElectionTimeout()
	case inHeartbeat:
		c.onHeartbeat()
	case inPropose:
		return c.propose(in.data)
	case inRead:
		c.read(in.id)
	case inWake:
		c.onWake()
	case inCompact:
		return c.compact(in.index, in.data)
	}
	return nil
}

func (c *core) handle(m message) {
	switch m.kind {
	case msgRequestVote:
		c.handleRequestVote(m.from, m.vote)
	case msgRequestVoteResp:
		c.handleRequestVoteResp(m.from, m.voteResp)
	case msgAppendEntries:
		c.handleAppendEntries(m.from, m.app)
	case msgAppendEntriesResp:
		c.handleAppendEntriesResp(m.from, m.appResp)
	case msgInstallSnapshot:
		c.handleInstallSnapshot(m.from, m.snap)
	case msgInstallSnapshotResp:
		c.handleInstallSnapshotResp(m.from, m.snapResp)
	case msgReadIndexReq:
		c.handleReadIndexReq(m.from, m.read)
	case msgReadIndexResp:
		c.handleReadIndexResp(m.readResp)
	case msgWake:
		c.handleWake(m.wake)
	}
}

// peerIndex is id's position in peers, and so in prs; -1 for a non-member.
func (c *core) peerIndex(id int) int { return slices.Index(c.peers, id) }

func (c *core) emit(e effect) { c.out = append(c.out, e) }

func (c *core) send(to int, m message) { c.emit(effect{kind: send, to: to, msg: m}) }

// sendPeers sends m to every other member.
func (c *core) sendPeers(m message) {
	for _, p := range c.peers {
		if p != c.id {
			c.send(p, m)
		}
	}
}

func (c *core) persistHardState() {
	c.emit(effect{kind: persistHardState, term: c.currentTerm, vote: c.votedFor})
}

func (c *core) lastIndex() uint64 { return c.snapIndex + uint64(len(c.log)) }

func (c *core) termAt(idx uint64) uint64 {
	switch {
	case idx == c.snapIndex:
		return c.snapTerm
	case idx > c.snapIndex && idx <= c.lastIndex():
		return c.log[idx-c.snapIndex-1].Term
	default:
		return 0
	}
}

// entryAt returns the log entry at idx (idx must be in (snapIndex,
// lastIndex]).
func (c *core) entryAt(idx uint64) Entry { return c.log[idx-c.snapIndex-1] }
