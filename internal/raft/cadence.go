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

// onWake is Node.Wake: a client asked this node for service and did not
// get it. An idle leader shows itself with a round at once; any other idle
// node takes a fresh normal election timeout and tells its peers.
func (c *core) onWake() {
	if !c.wake(wakeClient) {
		return
	}
	if c.state == Leader {
		c.broadcastAppend()
	} else {
		c.sendPeers(wake{}.wire())
	}
}

func (c *core) handleWake(msg wake) {
	cause := wakePeer
	if msg.Start {
		cause = wakeStart
	}
	if c.wake(cause) && c.state == Leader {
		c.broadcastAppend()
	}
}

// wake puts the node's own timer back on the fast cadence and reports
// whether it was on the idle one. A leader's caller follows it with a
// round (which is what tells the followers).
func (c *core) wake(cause wakeCause) bool {
	// An offer still out is withdrawn: acceptances on their way no longer
	// count, whatever order the links deliver them in.
	c.roundIdle = false
	if !c.idle {
		return false
	}
	if c.mtr != nil {
		c.mtr.Inc("raft_wakes", c.mtrLabel, wakeCauseNames[cause])
	}
	if c.state == Leader {
		c.setLeaderCadence(false)
	} else {
		c.resetElectionTimer()
	}
	return true
}

// setLeaderCadence puts the leader's heartbeat on the idle or the fast
// cadence, counted from now.
func (c *core) setLeaderCadence(idle bool) {
	d := c.cfg.HeartbeatInterval
	if idle {
		d *= idleFactor
	}
	c.idle = idle
	c.emit(effect{kind: setHeartbeat, d: d})
}

// onHeartbeat is the leader's tick: start the next round, offering the
// idle cadence if the log is settled. The ticker keeps its period unless
// the tick finds a spell over that nothing woke the leader from — a
// follower stopped answering — or a leader with nobody to ask.
func (c *core) onHeartbeat() {
	if c.state != Leader {
		return // a tick that raced the step-down
	}
	offer := c.settled()
	c.startRound(offer)
	if offer {
		c.repl.IdleRounds++
		if c.mtr != nil {
			c.mtr.Inc("raft_idle_rounds", c.mtrLabel)
		}
	}
	if idle := offer && (c.idle || c.followers == 0); idle != c.idle {
		c.setLeaderCadence(idle)
	}
}

// settled reports whether the leader has nothing to tell anyone: every
// follower answered the latest round, holds the whole log, and the whole
// log is committed; no read round is in flight.
// Whether each follower also knows all of it is committed is for the
// follower to say (handleAppendEntries).
func (c *core) settled() bool {
	if c.roundAcked != c.followers || len(c.pendingReads) > 0 {
		return false
	}
	last := c.lastIndex()
	if c.commitIndex != last {
		return false
	}
	for _, p := range c.peers {
		if c.matchIndex[p] != last {
			return false
		}
	}
	return true
}

// observeRoundAck counts a follower's ack toward the round it answers —
// only the latest round counts — and, once every follower has accepted
// that round's idle offer, puts the leader on the idle cadence.
func (c *core) observeRoundAck(from int, msg appendEntriesResp) {
	if msg.Seq != c.hbSeq {
		return
	}
	bit := c.peerBit(from)
	c.roundAcked |= bit
	if !msg.Idle || !c.roundIdle {
		return
	}
	c.idleAgreed |= bit
	if !c.idle && c.idleAgreed == c.followers {
		c.setLeaderCadence(true)
	}
}

// peerBit is id's bit in the per-round acknowledgement masks.
func (c *core) peerBit(id int) uint64 {
	for i, p := range c.peers {
		if p == id {
			return 1 << uint(i)
		}
	}
	return 0
}
