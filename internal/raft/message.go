package raft

import "time"

// msgKind says which member of message is in use.
type msgKind uint8

const (
	msgRequestVote msgKind = iota + 1
	msgRequestVoteResp
	msgAppendEntries
	msgAppendEntriesResp
	msgReadIndexReq
	msgReadIndexResp
	msgInstallSnapshot
	msgInstallSnapshotResp
	msgWake
)

// message is what travels on a link and through a node's inbox: a union
// of the protocol's message types, held by value so that sending one boxes
// nothing. Each type's wire method is the only place a kind is paired with
// its member; Node.handle is the only place it is unpacked.
type message struct {
	kind msgKind
	from int

	vote     requestVote
	voteResp requestVoteResp
	app      appendEntries
	appResp  appendEntriesResp
	read     readIndexReq
	readResp readIndexResp
	snap     installSnapshot
	snapResp installSnapshotResp
	wake     wake
}

func (m requestVote) wire() message     { return message{kind: msgRequestVote, vote: m} }
func (m requestVoteResp) wire() message { return message{kind: msgRequestVoteResp, voteResp: m} }
func (m appendEntries) wire() message   { return message{kind: msgAppendEntries, app: m} }
func (m appendEntriesResp) wire() message {
	return message{kind: msgAppendEntriesResp, appResp: m}
}
func (m readIndexReq) wire() message    { return message{kind: msgReadIndexReq, read: m} }
func (m readIndexResp) wire() message   { return message{kind: msgReadIndexResp, readResp: m} }
func (m installSnapshot) wire() message { return message{kind: msgInstallSnapshot, snap: m} }
func (m installSnapshotResp) wire() message {
	return message{kind: msgInstallSnapshotResp, snapResp: m}
}

func (m wake) wire() message { return message{kind: msgWake, wake: m} }

// message types exchanged between nodes.
type (
	requestVote struct {
		Term         uint64
		Candidate    int
		LastLogIndex uint64
		LastLogTerm  uint64
	}
	requestVoteResp struct {
		Term    uint64
		Granted bool
	}
	appendEntries struct {
		Term         uint64
		Leader       int
		PrevLogIndex uint64
		PrevLogTerm  uint64
		Entries      []Entry
		LeaderCommit uint64
		// Seq is the leader's heartbeat-round number; the response echoes
		// it so ReadIndex rounds can tell which acks postdate them.
		Seq uint64
		// Idle is the leader's offer to slow down: this round found the
		// log settled, so if the receiver holds and has committed the
		// same log it may lengthen its election timeout by idleFactor.
		Idle bool
	}
	appendEntriesResp struct {
		Term       uint64
		Success    bool
		MatchIndex uint64
		// ConflictIndex lets the leader back up nextIndex quickly.
		ConflictIndex uint64
		// Seq echoes appendEntries.Seq (0 for snapshot-install acks).
		Seq uint64
		// LocalTime is the responder's clock reading when it acked. The
		// leader compares it against its own reading: a deviation beyond
		// MaxClockDrift means one of the two clocks stepped, so the
		// check-quorum lease is killed rather than trusted.
		LocalTime time.Time
		// Idle accepts the round's offer: the responder's election timer
		// now runs at idleFactor times a fresh timeout.
		Idle bool
	}
	// readIndexReq forwards a follower's ReadIndex call to the leader.
	readIndexReq struct {
		ID uint64
	}
	// readIndexResp answers a forwarded ReadIndex (OK=false: the asked
	// node is not leader, or lost leadership before confirming).
	readIndexResp struct {
		ID    uint64
		Index uint64
		OK    bool
	}
	// installSnapshot carries the leader's whole snapshot (§7): the state
	// machine image Data covering the log through LastIndex.
	installSnapshot struct {
		Term      uint64
		Leader    int
		LastIndex uint64
		LastTerm  uint64
		Data      []byte
	}
	// wake says "somebody asked me for service" (Node.Wake) or, with
	// Start, "I have just booted": whoever receives it on the idle
	// cadence goes back to the fast one. It carries no term — a wake only
	// shortens timers that were lengthened by agreement, so a stale or
	// duplicated one is harmless.
	wake struct {
		Start bool
	}
	// installSnapshotResp acks an installSnapshot: the follower holds the
	// log through LastIndex (its commit index, if the snapshot was stale).
	installSnapshotResp struct {
		Term      uint64
		LastIndex uint64
	}
)
