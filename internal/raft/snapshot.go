package raft

import "fmt"

// snapXfer is one outbound snapshot stream to a follower. data aliases
// the leader's snapshot bytes: snapshot slices are immutable once taken
// (compaction and snapshot installs replace the slice wholesale, never
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

// handleInstallSnapshot accumulates one chunk of a streamed snapshot on
// a lagging follower, installing the whole image on the final chunk.
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
		// Stale snapshot: we already hold everything it covers. Done=true
		// with our commit index lets the leader advance matchIndex and
		// resume ordinary appends.
		c.pendingSnap = nil
		c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: c.commitIndex, NextOffset: msg.Total, Done: true}.wire())
		return
	}
	p := c.pendingSnap
	if p == nil || p.index != msg.LastIndex || msg.Offset != len(p.data) {
		if msg.Offset != 0 {
			// Chunk loss, duplication, or a transfer restart: answer with
			// the offset we actually need so the leader resynchronizes.
			nextOff := 0
			if p != nil && p.index == msg.LastIndex {
				nextOff = len(p.data)
			}
			c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: msg.LastIndex, NextOffset: nextOff}.wire())
			return
		}
		p = &pendingSnapshot{index: msg.LastIndex, term: msg.LastTerm}
		c.pendingSnap = p
	}
	p.data = append(p.data, msg.Data...)
	if !msg.Done {
		c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: msg.LastIndex, NextOffset: len(p.data)}.wire())
		return
	}
	// Final chunk: discard the log and adopt the snapshot wholesale. The
	// accumulated buffer is exclusively ours, so node state and the Apply
	// share it without copying.
	c.pendingSnap = nil
	c.log = nil
	c.snapIndex = p.index
	c.snapTerm = p.term
	c.snapshot = p.data
	c.commitIndex = p.index
	c.lastApplied = p.index
	c.emit(effect{kind: persistSnapshot, index: p.index, term: p.term, data: p.data})
	c.emit(effect{kind: deliver, apply: Apply{IsSnapshot: true, Snapshot: p.data, SnapIndex: p.index}})
	c.send(from, installSnapshotResp{Term: c.currentTerm, LastIndex: p.index, NextOffset: len(p.data), Done: true}.wire())
}

// handleInstallSnapshotResp clocks an outbound snapshot stream forward
// (one chunk in flight per follower) and, on completion, resumes
// ordinary appends after the installed index.
func (c *core) handleInstallSnapshotResp(from int, msg installSnapshotResp) {
	if msg.Term > c.currentTerm {
		c.becomeFollower(msg.Term, -1)
		return
	}
	if c.state != Leader || msg.Term != c.currentTerm {
		return
	}
	if msg.Done {
		delete(c.snapXfers, from)
		c.matchIndex[from] = max(c.matchIndex[from], msg.LastIndex)
		c.nextIndex[from] = max(c.nextIndex[from], c.matchIndex[from]+1)
		c.advanceCommit()
		if c.lastIndex() >= c.nextIndex[from] {
			c.sendAppend(from)
		}
		c.enqueueApplies()
		return
	}
	x := c.snapXfers[from]
	if x == nil || x.index != c.snapIndex {
		// The transfer restarted (new compaction) or was abandoned; the
		// next heartbeat re-probes from the current snapshot.
		return
	}
	if msg.LastIndex == x.index && msg.NextOffset >= 0 && msg.NextOffset <= len(x.data) {
		x.offset = msg.NextOffset
		c.sendSnapshot(from)
	}
}

// sendSnapshot ships the next chunk of the leader's snapshot to a
// follower whose needed entries were compacted away. One chunk per
// transfer is in flight; heartbeat ticks re-send the current chunk (the
// follower's NextOffset makes duplicates harmless) and each ack clocks
// the stream forward. Chunks alias the immutable snapshot bytes — no
// per-send copy of the full image.
func (c *core) sendSnapshot(to int) {
	x := c.snapXfers[to]
	if x == nil || x.index != c.snapIndex {
		x = &snapXfer{index: c.snapIndex, term: c.snapTerm, data: c.snapshot}
		c.snapXfers[to] = x
	}
	size := c.cfg.SnapChunkSize
	if size <= 0 || size > len(x.data)-x.offset {
		size = len(x.data) - x.offset
	}
	end := x.offset + size
	c.repl.SnapChunksSent++
	c.repl.SnapBytesSent += uint64(size)
	if c.mtr != nil {
		c.mtr.Inc("raft_snapshot_chunks_sent", c.mtrLabel)
		c.mtr.Add("raft_snapshot_bytes_sent", float64(size), c.mtrLabel)
	}
	c.send(to, installSnapshot{
		Term:      c.currentTerm,
		Leader:    c.id,
		LastIndex: x.index,
		LastTerm:  x.term,
		Offset:    x.offset,
		Data:      x.data[x.offset:end],
		Done:      end == len(x.data),
		Total:     len(x.data),
	}.wire())
}
