package raft

// The cadence follows the log.
//
// A heartbeat exists to keep followers from suspecting a live leader and
// to carry the commit index to them. When every follower already holds
// and has committed the whole log there is nothing to carry, and how
// often the leader must show itself is a matter of agreement: a
// heartbeat tick that finds the log settled — and found every follower
// answering the round before it, so a cluster with a dead member never
// gets here — offers Idle on its round; a follower that sees the same log
// re-arms its election timer at idleFactor times a fresh timeout and says
// so in its ack; once every follower has said so for that same round the
// leader resets its heartbeat's period to idleFactor times the interval,
// and keeps offering for as long as the rounds keep finding the log
// settled.
//
// Any round that is not such a tick carries no offer, and a follower
// that receives one is back on a normal timeout: a proposal, a read
// round, a barrier, a new leader's first round put every node on the
// fast cadence in the instant they happen. Demand the log cannot see —
// a client that finds no leader, or finds the one it knew silent — comes
// in through Wake. Waking is always safe: it only shortens timers that
// were lengthened by agreement, never the other way.
//
// What it costs: an idle cluster that nobody asks anything of notices a
// dead or cut-off leader within idleFactor × ElectionTimeoutMax instead
// of ElectionTimeoutMax. A cluster that is asked notices it as before,
// one fresh election timeout after the first request.

// idleFactor is how much longer the heartbeat interval and the election
// timeouts are on the idle cadence. At 10 an idle follower suspects its
// leader after 1.5–3 s with the default timing: well under the 5 s a
// client of internal/etcd waits for one request, so even a request that
// wakes nobody is served within its own deadline.
const idleFactor = 10

// wakeCause says what put a node back on the fast cadence.
type wakeCause uint8

const (
	wakePropose wakeCause = iota // a proposal reached the idle leader
	wakeRead                     // a read-index round was launched on it
	wakeVote                     // somebody is standing for election
	wakeClient                   // Wake was called on this node
	wakePeer                     // a peer's client woke it and it told us
	wakeStart                    // a peer has just started
)

var wakeCauseNames = [...]string{"propose", "read", "vote", "client", "peer", "start"}

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
	if n.stopped || !n.wakeLocked(wakeClient) {
		return
	}
	if n.state == Leader {
		n.broadcastAppendLocked()
	} else {
		n.sendPeers(wake{}.wire())
	}
}

func (n *Node) handleWake(msg wake) {
	cause := wakePeer
	if msg.Start {
		cause = wakeStart
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.wakeLocked(cause) && n.state == Leader {
		n.broadcastAppendLocked()
	}
}

// wakeLocked puts the node's own timer back on the fast cadence and
// reports whether it was on the idle one. A leader's caller follows it
// with a round (which is what tells the followers).
func (n *Node) wakeLocked(cause wakeCause) bool {
	// An offer still out is withdrawn: acceptances on their way no longer
	// count, whatever order the links deliver them in.
	n.roundIdle = false
	if !n.idle {
		return false
	}
	if reg := n.mtr.Load(); reg != nil {
		reg.Inc("raft_wakes", n.mtrLabel, wakeCauseNames[cause])
	}
	if n.state == Leader {
		n.setLeaderCadenceLocked(false)
	} else {
		n.resetElectionTimerLocked()
	}
	return true
}

// setLeaderCadenceLocked puts the leader's heartbeat on the idle or the
// fast cadence, counted from now.
func (n *Node) setLeaderCadenceLocked(idle bool) {
	d := n.cfg.HeartbeatInterval
	if idle {
		d *= idleFactor
	}
	n.idle = idle
	n.heartbeat.Reset(d)
}

// onHeartbeat is the leader's tick: start the next round, offering the
// idle cadence if the log is settled. The ticker keeps its period unless
// the tick finds a spell over that nothing woke the leader from — a
// follower stopped answering — or a leader with nobody to ask.
func (n *Node) onHeartbeat() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != Leader {
		return // a tick that raced the step-down
	}
	offer := n.settledLocked()
	n.startRoundLocked(offer)
	if offer {
		n.statIdleRounds.Add(1)
		if reg := n.mtr.Load(); reg != nil {
			reg.Inc("raft_idle_rounds", n.mtrLabel)
		}
	}
	if idle := offer && (n.idle || n.followers == 0); idle != n.idle {
		n.setLeaderCadenceLocked(idle)
	}
}

// settledLocked reports whether the leader has nothing to tell anyone:
// every follower answered the latest round, holds the whole log, and the
// whole log is committed; no read round or snapshot transfer is in flight.
// Whether each follower also knows all of it is committed is for the
// follower to say (handleAppendEntries).
func (n *Node) settledLocked() bool {
	if n.roundAcked != n.followers || len(n.pendingReads) > 0 || len(n.snapXfers) > 0 {
		return false
	}
	last := n.lastIndexLocked()
	if n.commitIndex != last {
		return false
	}
	for _, p := range n.peers {
		if n.matchIndex[p] != last {
			return false
		}
	}
	return true
}

// observeRoundAckLocked counts a follower's ack toward the round it
// answers — only the latest round counts — and, once every follower has
// accepted that round's idle offer, puts the leader on the idle cadence.
func (n *Node) observeRoundAckLocked(from int, msg appendEntriesResp) {
	if msg.Seq != n.hbSeq {
		return
	}
	bit := n.peerBit(from)
	n.roundAcked |= bit
	if !msg.Idle || !n.roundIdle {
		return
	}
	n.idleAgreed |= bit
	if !n.idle && n.idleAgreed == n.followers {
		n.setLeaderCadenceLocked(true)
	}
}

// peerBit is id's bit in the per-round acknowledgement masks.
func (n *Node) peerBit(id int) uint64 {
	for i, p := range n.peers {
		if p == id {
			return 1 << uint(i)
		}
	}
	return 0
}

// sendPeers sends msg to every other member.
func (n *Node) sendPeers(msg message) {
	for _, p := range n.peers {
		if p != n.id {
			n.trans.send(n.id, p, msg)
		}
	}
}
