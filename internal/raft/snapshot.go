package raft

import "fmt"

// compact discards log entries through index, recording snapshot as the
// application state at that point (§7 of the Raft paper).
func (c *core) compact(index uint64, snapshot []byte) error {
	if index <= c.snapIndex {
		return nil
	}
	if index > c.lastApplied {
		return fmt.Errorf("raft: compact index %d beyond applied %d", index, c.lastApplied)
	}
	term := c.termAt(index)
	c.log = append([]Entry(nil), c.log[index-c.snapIndex:]...)
	c.snapIndex = index
	c.snapTerm = term
	c.snapshot = append([]byte(nil), snapshot...)
	c.emit(effect{kind: persistCompact, index: index, term: term, data: c.snapshot})
	return nil
}

// handleInstallSnapshot fast-forwards a lagging follower to the leader's
// snapshot. The image is installed as received: snapshot bytes are never
// written once taken (compaction and installs replace the slice
// wholesale), so node state and the Apply alias the message's Data.
func (c *core) handleInstallSnapshot(from int, msg installSnapshot) {
	if msg.Term > c.currentTerm ||
		(msg.Term == c.currentTerm && c.state != Follower) {
		c.becomeFollower(msg.Term, msg.Leader)
	}
	if msg.Term < c.currentTerm {
		c.send(from, installSnapshotResp{Term: c.currentTerm}.wire())
		return
	}
	c.leaderID = msg.Leader
	c.lastContact = c.now
	c.resetElectionTimer()

	if msg.LastIndex <= c.commitIndex {
		// Stale snapshot (a resend, or one that an append overtook): we
		// already hold everything it covers. Our commit index lets the
		// leader advance matchIndex and resume ordinary appends.
		c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: c.commitIndex}.wire())
		return
	}
	c.log = nil
	c.snapIndex = msg.LastIndex
	c.snapTerm = msg.LastTerm
	c.snapshot = msg.Data
	c.commitIndex = msg.LastIndex
	c.lastApplied = msg.LastIndex
	c.emit(effect{kind: persistSnapshot, index: msg.LastIndex, term: msg.LastTerm, data: msg.Data})
	c.emit(effect{kind: deliver, apply: Apply{IsSnapshot: true, Snapshot: msg.Data, SnapIndex: msg.LastIndex}})
	c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: msg.LastIndex}.wire())
}

// handleInstallSnapshotResp resumes ordinary appends after the index the
// follower now holds.
func (c *core) handleInstallSnapshotResp(from int, msg installSnapshotResp) {
	if msg.Term > c.currentTerm {
		c.becomeFollower(msg.Term, -1)
		return
	}
	if c.state != Leader || msg.Term != c.currentTerm {
		return
	}
	pr := &c.prs[c.peerIndex(from)]
	pr.match = max(pr.match, msg.LastIndex)
	pr.next = max(pr.next, pr.match+1)
	c.advanceCommit()
	if c.lastIndex() >= pr.next {
		c.sendAppend(from)
	}
	c.enqueueApplies()
}

// sendSnapshot ships the leader's whole snapshot to a follower whose
// needed entries were compacted away. nextIndex stays put, so every
// heartbeat resends it until the ack arrives; the message aliases the
// immutable snapshot bytes, so a resend copies nothing.
func (c *core) sendSnapshot(to int) {
	c.repl.SnapshotsSent++
	if c.mtr != nil {
		c.mtr.Inc("raft_snapshots_sent", c.mtrLabel)
	}
	c.send(to, installSnapshot{
		Term:      c.currentTerm,
		Leader:    c.id,
		LastIndex: c.snapIndex,
		LastTerm:  c.snapTerm,
		Data:      c.snapshot,
	}.wire())
}
