package raft

import "slices"

// ReplicationStats are cumulative per-node replication counters, the
// observability surface of the write path.
type ReplicationStats struct {
	// AppendsSent counts AppendEntries messages sent while leading
	// (heartbeats included); EntriesSent the log entries they carried.
	// EntriesSent/AppendsSent is the entries-per-append ratio.
	AppendsSent uint64
	EntriesSent uint64
	// AppendRejects counts log-consistency rejects (nextIndex rewinds).
	AppendRejects uint64
	// SnapshotsSent counts installSnapshot messages, resends included.
	SnapshotsSent uint64
	// IdleRounds counts the heartbeat rounds that found the log settled
	// and offered (or kept) the idle cadence.
	IdleRounds uint64
}

// propose appends cmd to the leader's log and replicates it at once
// rather than waiting for the heartbeat tick.
func (c *core) propose(cmd []byte) error {
	if c.state != Leader {
		return ErrNotLeader
	}
	c.appendEntry(cmd)
	c.wake(wakePropose)
	c.broadcastAppend()
	return nil
}

// appendEntry adds one entry to the end of the leader's own log and
// persists it.
func (c *core) appendEntry(cmd []byte) {
	e := Entry{Index: c.lastIndex() + 1, Term: c.currentTerm, Cmd: cmd}
	c.log = append(c.log, e)
	c.emit(effect{kind: persistEntries, index: e.Index, entries: c.log[len(c.log)-1:]})
	c.matchIndex[c.id] = e.Index
}

func (c *core) handleAppendEntries(from int, msg appendEntries) {
	if msg.Term > c.currentTerm ||
		(msg.Term == c.currentTerm && c.state != Follower) {
		c.becomeFollower(msg.Term, msg.Leader)
	}
	if msg.Term < c.currentTerm {
		c.send(from, appendEntriesResp{Term: c.currentTerm, Success: false}.wire())
		return
	}
	// Valid leader for our term.
	c.leaderID = msg.Leader
	fresh := msg.Seq >= c.leaderSeq
	if fresh {
		c.leaderSeq, c.lastContact = msg.Seq, c.now
	}

	// Log consistency check. Anything at or below the snapshot index is
	// committed state here, so a PrevLogIndex inside the snapshot is
	// consistent by construction.
	consistent := msg.PrevLogIndex <= c.snapIndex ||
		(msg.PrevLogIndex <= c.lastIndex() &&
			c.termAt(msg.PrevLogIndex) == msg.PrevLogTerm)
	if !consistent {
		conflict := min(msg.PrevLogIndex, c.lastIndex()+1)
		if conflict == 0 {
			conflict = 1
		}
		// A consistency failure still acknowledges the sender's
		// leadership for this term, so it echoes Seq and counts toward
		// read-index quorums.
		if fresh {
			c.resetElectionTimer()
		}
		c.send(from, appendEntriesResp{Term: c.currentTerm, Success: false, ConflictIndex: conflict, Seq: msg.Seq, LocalTime: c.now}.wire())
		return
	}
	// Append new entries, truncating on conflict (§5.3). Entries at or
	// below the snapshot index are already committed and compacted.
	var changed uint64 // the first log index this message wrote, if any
	for _, e := range msg.Entries {
		if e.Index <= c.snapIndex {
			continue
		}
		if e.Index <= c.lastIndex() {
			if c.termAt(e.Index) == e.Term {
				continue
			}
			// Clipped, so the append below moves the log to a new array:
			// this node may have shipped the slots it now rewrites while it
			// led.
			c.log = slices.Clip(c.log[:e.Index-c.snapIndex-1])
		}
		c.log = append(c.log, e)
		if changed == 0 {
			changed = e.Index
		}
	}
	if changed > 0 {
		c.emit(effect{kind: persistEntries, index: changed, entries: c.log[changed-c.snapIndex-1:]})
	}
	if msg.LeaderCommit > c.commitIndex {
		c.commitIndex = min(msg.LeaderCommit, c.lastIndex())
	}
	match := msg.PrevLogIndex + uint64(len(msg.Entries))
	// The idle offer is accepted only by a follower that sees for itself
	// what the leader saw: nothing in the message, nothing in its own log
	// beyond the leader's last index, all of it committed.
	idle := fresh && msg.Idle && len(msg.Entries) == 0 &&
		c.lastIndex() == msg.PrevLogIndex && c.commitIndex == msg.PrevLogIndex
	if fresh {
		c.armElection(idle)
	}
	resp := appendEntriesResp{Term: c.currentTerm, Success: true, MatchIndex: match, Seq: msg.Seq, LocalTime: c.now, Idle: idle}
	c.enqueueApplies()
	c.send(from, resp.wire())
}

func (c *core) handleAppendEntriesResp(from int, msg appendEntriesResp) {
	if msg.Term > c.currentTerm {
		c.becomeFollower(msg.Term, -1)
		return
	}
	if c.state != Leader || msg.Term != c.currentTerm {
		return
	}
	// Any same-term response — success or log-consistency failure — is a
	// leadership ack for the heartbeat round it echoes; credit it to the
	// launched read rounds registered at or before that round, and fold
	// it into the check-quorum lease (extension, or skew invalidation).
	if msg.Seq > 0 {
		bit := c.peerBit(from)
		for _, pr := range c.pendingReads {
			if pr.started && msg.Seq >= pr.seq {
				pr.acks |= bit
			}
		}
		c.observeAck(from, msg)
		c.maybeCompleteReads()
		c.observeRoundAck(from, msg)
	}
	if msg.Success {
		c.matchIndex[from] = max(c.matchIndex[from], msg.MatchIndex)
		c.nextIndex[from] = max(c.nextIndex[from], c.matchIndex[from]+1)
		c.advanceCommit()
	} else {
		c.repl.AppendRejects++
		if c.mtr != nil {
			c.mtr.Inc("raft_append_rejects", c.mtrLabel)
		}
		// Back up and retry. The optimistic nextIndex collapses to the
		// conflict point, but never below what the follower already
		// acknowledged.
		next := msg.ConflictIndex
		if next == 0 || next >= c.nextIndex[from] {
			next = max(c.nextIndex[from], 2) - 1
		}
		c.nextIndex[from] = max(next, c.matchIndex[from]+1)
		c.sendAppend(from)
	}
	c.enqueueApplies()
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority whose entry is from the current term (§5.4.2).
func (c *core) advanceCommit() {
	matches := c.quorumScratch[:0]
	for _, p := range c.peers {
		matches = append(matches, c.matchIndex[p])
	}
	c.quorumScratch = matches
	majority := kthLargest(matches, len(c.peers)/2+1)
	if majority > c.commitIndex && c.termAt(majority) == c.currentTerm {
		c.commitIndex = majority
		// Reads whose quorum already acked may have been waiting for the
		// current term's first commit (the no-op barrier).
		c.maybeCompleteReads()
	}
}

// kthLargest returns the k-th largest (1 = the largest) of vals, sorting
// them in place: the highest value that at least k of the peers have reached.
func kthLargest(vals []uint64, k int) uint64 {
	slices.Sort(vals)
	return vals[len(vals)-k]
}

// enqueueApplies hands every newly committed entry to the apply channel.
func (c *core) enqueueApplies() {
	for c.lastApplied < c.commitIndex {
		c.lastApplied++
		c.emit(effect{kind: deliver, apply: Apply{Entry: c.entryAt(c.lastApplied)}})
	}
}

// broadcastAppend starts a round because something is asked of the log —
// a proposal, a read, an election won, a wake — so it carries no idle
// offer; only the heartbeat tick (onHeartbeat) starts one that does.
func (c *core) broadcastAppend() { c.startRound(false) }

// startRound sends every follower an append in a new round, with the idle
// offer if offerIdle.
func (c *core) startRound(offerIdle bool) {
	c.hbSeq++ // new heartbeat round: later acks confirm leadership now
	c.roundIdle = offerIdle
	c.roundAcked, c.idleAgreed = 0, 0
	if c.leaseDuration() > 0 {
		c.recordRound()
	}
	for _, p := range c.peers {
		if p != c.id {
			c.sendAppend(p)
		}
	}
	// A single-node cluster commits by itself.
	c.advanceCommit()
	c.enqueueApplies()
}

func (c *core) sendAppend(to int) {
	next := max(c.nextIndex[to], 1)
	if next <= c.snapIndex {
		// The follower needs entries that were compacted away: send the
		// snapshot instead (§7, InstallSnapshot).
		c.sendSnapshot(to)
		return
	}
	prevIdx := next - 1
	msg := appendEntries{
		Term:         c.currentTerm,
		Leader:       c.id,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  c.termAt(prevIdx),
		LeaderCommit: c.commitIndex,
		Seq:          c.hbSeq,
		Idle:         c.roundIdle,
	}
	if last := c.lastIndex(); last >= next {
		// A window of the log, not a copy: shipped slots are never written
		// again (see core.log).
		lo, hi := next-c.snapIndex-1, last-c.snapIndex
		msg.Entries = c.log[lo:hi:hi]
		// Optimistic advance: the next send continues after this one; a
		// consistency reject rewinds it.
		c.nextIndex[to] = last + 1
	}
	c.repl.AppendsSent++
	c.repl.EntriesSent += uint64(len(msg.Entries))
	if c.mtr != nil {
		c.mtr.Inc("raft_appends_sent", c.mtrLabel)
		c.mtr.Add("raft_entries_sent", float64(len(msg.Entries)), c.mtrLabel)
	}
	c.send(to, msg.wire())
}
