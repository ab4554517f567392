package raft

import "time"

// electionTimeout is a fresh randomized election timeout, idleFactor times
// longer on the idle cadence.
func (c *core) electionTimeout(idle bool) time.Duration {
	spread := c.cfg.ElectionTimeoutMax - c.cfg.ElectionTimeoutMin
	d := c.cfg.ElectionTimeoutMin + time.Duration(c.rng.Int63n(int64(spread)+1))
	if idle {
		d *= idleFactor
	}
	return d
}

// armElection re-arms the election timer at a fresh randomized timeout —
// idleFactor times it when the node has just accepted a round's idle
// offer — and records which cadence the timer is on.
func (c *core) armElection(idle bool) {
	c.idle = idle
	c.emit(effect{kind: armElection, d: c.electionTimeout(idle)})
}

// resetElectionTimer gives a non-leader a fresh randomized election
// timeout on the fast cadence.
func (c *core) resetElectionTimer() { c.armElection(false) }

func (c *core) onElectionTimeout() {
	if c.state == Leader {
		return // stale timer
	}
	// Become candidate for a new term.
	c.currentTerm++
	c.state = Candidate
	c.votedFor = c.id
	c.leaderID = -1
	c.votes = map[int]bool{c.id: true}
	c.persistHardState()
	c.resetElectionTimer()

	lastIdx := c.lastIndex()
	c.sendPeers(requestVote{
		Term:         c.currentTerm,
		Candidate:    c.id,
		LastLogIndex: lastIdx,
		LastLogTerm:  c.termAt(lastIdx),
	}.wire())
	// Single-node cluster wins immediately.
	c.maybeBecomeLeader()
}

func (c *core) handleRequestVote(from int, msg requestVote) {
	// A follower that heard from the leader of its term less than the
	// minimum election timeout ago believes that leader is alive: it
	// neither adopts the candidate's term nor votes (Raft thesis §4.2.3
	// and §6.4.1). This is the promise the check-quorum lease is made of —
	// a candidate cut off from a live leader cannot be elected by the
	// followers that still hear it while its lease runs. The window is the
	// base timeout on either cadence, and it is closed by a reading that
	// far from the contact in either direction: a local clock that stepped
	// back must not keep the node from voting for as long as the step.
	if since := c.now.Sub(c.lastContact); c.state == Follower &&
		!c.lastContact.IsZero() && since.Abs() < c.cfg.ElectionTimeoutMin {
		c.send(from, requestVoteResp{Term: c.currentTerm}.wire())
		return
	}
	// Somebody suspects the leader: whatever comes of it, this node is
	// back on the fast cadence.
	woke := c.wake(wakeVote)
	if msg.Term > c.currentTerm {
		c.becomeFollower(msg.Term, -1)
	}
	if woke && c.state == Leader {
		c.broadcastAppend() // a stale candidate hears the leader at once
	}
	granted := false
	if msg.Term == c.currentTerm && (c.votedFor == -1 || c.votedFor == msg.Candidate) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours (§5.4.1).
		lastIdx := c.lastIndex()
		lastTerm := c.termAt(lastIdx)
		if msg.LastLogTerm > lastTerm ||
			(msg.LastLogTerm == lastTerm && msg.LastLogIndex >= lastIdx) {
			granted = true
			c.votedFor = msg.Candidate
			c.persistHardState()
			c.resetElectionTimer()
		}
	}
	c.send(from, requestVoteResp{Term: c.currentTerm, Granted: granted}.wire())
}

func (c *core) handleRequestVoteResp(from int, msg requestVoteResp) {
	if msg.Term > c.currentTerm {
		c.becomeFollower(msg.Term, -1)
		return
	}
	if c.state != Candidate || msg.Term != c.currentTerm || !msg.Granted {
		return
	}
	c.votes[from] = true
	c.maybeBecomeLeader()
}

func (c *core) maybeBecomeLeader() {
	if c.state != Candidate || len(c.votes) <= len(c.peers)/2 {
		return
	}
	c.state = Leader
	c.leaderID = c.id
	for i := range c.prs {
		c.prs[i] = progress{next: c.lastIndex() + 1}
	}
	c.prs[c.peerIndex(c.id)].match = c.lastIndex()
	c.resetLeaseState()
	c.emit(effect{kind: armElection}) // stopped while leading
	c.idle = false
	c.emit(effect{kind: setHeartbeat, d: c.cfg.HeartbeatInterval})
	// Announce leadership immediately.
	c.broadcastAppend()
}

func (c *core) becomeFollower(term uint64, leader int) {
	wasLeader := c.state == Leader
	c.state = Follower
	if term > c.currentTerm {
		c.currentTerm = term
		c.votedFor = -1
		c.persistHardState()
	}
	c.leaderID = leader
	c.leaderSeq, c.lastContact = 0, time.Time{} // the caller records the new leader's, if this is one
	if wasLeader {
		c.emit(effect{kind: setHeartbeat}) // stopped
		c.failPendingReads()
		c.invalidateLease()
		c.resetLeaseState()
	}
	c.resetElectionTimer()
}
