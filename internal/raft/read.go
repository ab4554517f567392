package raft

import (
	"math/bits"
	"time"
)

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
	// clock skew beyond the drift bound).
	LeaseExpiries uint64
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
// At most one round is started (broadcast) at a time; a second, unstarted
// round accumulates reads that arrived too late to join it — an ack may
// predate a late joiner's registration, so joining an in-flight round
// would hand out a commit index recorded before the leadership it proves
// — and launches when the started round resolves.
type pendingRead struct {
	seq     uint64
	started bool
	acks    uint64   // the followers that acked (one bit each, peerBit)
	local   []uint64 // ids of this node's reads
	remote  []remoteRead
}

// read registers read id (Node.ReadIndex). The leader answers it from its
// lease, or with a confirmation round; a follower forwards it to the
// leader it believes in.
func (c *core) read(id uint64) {
	if c.state == Leader {
		if idx, ok := c.leaseRead(); ok {
			c.emit(effect{kind: readDone, id: id, index: idx})
			return
		}
		c.startRead(id, nil)
		return
	}
	if c.leaderID < 0 || c.leaderID == c.id {
		c.emit(effect{kind: readDone, id: id, err: ErrNoLeader})
		return
	}
	c.send(c.leaderID, readIndexReq{ID: id}.wire())
}

// startRead registers one read on the leader — this node's read id, or a
// forwarded one if remote is set — either joining a coalesced
// confirmation round or launching its own.
func (c *core) startRead(id uint64, remote *remoteRead) {
	// A freshly elected leader may not know its predecessor's full commit
	// index (§5.4.2 only advances commitment for current-term entries), so
	// its commit index could understate acknowledged writes. Commit a
	// no-op barrier once per term before serving any read index.
	if c.termAt(c.commitIndex) != c.currentTerm && c.barrierTerm != c.currentTerm {
		c.barrierTerm = c.currentTerm
		c.appendEntry(nil)
	}
	// Coalesce: the newest pending round is either still unlaunched (join
	// it) or already broadcast — its acks may predate this call, so a late
	// joiner queues for the NEXT round instead, which fires when the
	// in-flight one resolves. Batching emerges from concurrency, exactly
	// like group commit on writes.
	var pr *pendingRead
	if n := len(c.pendingReads); n > 0 && !c.pendingReads[n-1].started {
		pr = c.pendingReads[n-1]
	} else {
		pr = &pendingRead{}
		c.pendingReads = append(c.pendingReads, pr)
	}
	if remote == nil {
		pr.local = append(pr.local, id)
	} else {
		pr.remote = append(pr.remote, *remote)
	}
	if len(c.pendingReads) == 1 {
		c.launchReadRound(pr)
		// A single-node cluster is its own quorum.
		c.maybeCompleteReads()
	}
}

// launchReadRound broadcasts the heartbeat round whose acks will confirm
// pr's leadership.
func (c *core) launchReadRound(pr *pendingRead) {
	pr.seq = c.hbSeq + 1
	pr.started = true
	c.reads.Rounds++
	if c.mtr != nil {
		c.mtr.Inc("raft_readindex_rounds", c.mtrLabel)
	}
	c.wake(wakeRead)
	c.broadcastAppend()
}

// maybeCompleteReads resolves every launched round whose quorum has
// acked, provided the commit index has reached the leader's own term,
// then launches the queued coalesced round (if any). The outer loop
// re-runs the completion pass for single-node clusters, where the freshly
// launched round is its own quorum.
func (c *core) maybeCompleteReads() {
	if c.state != Leader || c.termAt(c.commitIndex) != c.currentTerm {
		return
	}
	quorum := len(c.peers)/2 + 1
	for len(c.pendingReads) > 0 {
		completed := false
		keep := c.pendingReads[:0]
		for _, pr := range c.pendingReads {
			if pr.started && bits.OnesCount64(pr.acks)+1 >= quorum { // +1: the leader itself
				c.reads.RoundReads += uint64(len(pr.local) + len(pr.remote))
				c.completeRead(pr, c.commitIndex, nil)
				completed = true
			} else {
				keep = append(keep, pr)
			}
		}
		c.pendingReads = keep
		if !completed {
			return
		}
		if c.mtr != nil && c.reads.Rounds > 0 {
			c.mtr.SetGauge("raft_reads_per_round", float64(c.reads.RoundReads)/float64(c.reads.Rounds), c.mtrLabel)
		}
		launched := false
		for _, pr := range c.pendingReads {
			if !pr.started {
				c.launchReadRound(pr)
				launched = true
				break
			}
		}
		if !launched || quorum > 1 {
			return
		}
	}
}

// completeRead delivers a read-index round's outcome to its local and
// forwarded waiters.
func (c *core) completeRead(pr *pendingRead, idx uint64, err error) {
	for _, id := range pr.local {
		c.emit(effect{kind: readDone, id: id, index: idx, err: err})
	}
	for _, r := range pr.remote {
		c.send(r.node, readIndexResp{ID: r.id, Index: idx, OK: err == nil}.wire())
	}
}

// failPendingReads aborts every in-flight read-index round; called on
// loss of leadership.
func (c *core) failPendingReads() {
	for _, pr := range c.pendingReads {
		c.completeRead(pr, 0, ErrNotLeader)
	}
	c.pendingReads = nil
}

func (c *core) handleReadIndexReq(from int, msg readIndexReq) {
	if c.state != Leader {
		c.send(from, readIndexResp{ID: msg.ID, OK: false}.wire())
		return
	}
	if idx, ok := c.leaseRead(); ok {
		c.send(from, readIndexResp{ID: msg.ID, Index: idx, OK: true}.wire())
		return
	}
	c.startRead(0, &remoteRead{node: from, id: msg.ID})
}

func (c *core) handleReadIndexResp(msg readIndexResp) {
	e := effect{kind: readDone, id: msg.ID, index: msg.Index}
	if !msg.OK {
		e.err = ErrNoLeader
	}
	c.emit(e)
}

// leaseRead answers a read from the check-quorum lease: while a quorum
// round confirmed leadership less than ElectionTimeoutMin - MaxClockDrift
// ago (on the local clock), no other node can have won an election — each
// follower of that quorum reset its election timer on the round's append
// and refuses its vote to anyone for ElectionTimeoutMin from it
// (handleRequestVote), and an election needs one of them — so the commit
// index is served with zero messages. On the idle cadence rounds are
// further apart than the lease is long: it lapses, and the next read pays
// one round, which also re-arms it. The barrier precondition matches the
// round path: a fresh leader whose commit index hasn't reached its own
// term may understate acknowledged writes and must not answer from a
// lease.
func (c *core) leaseRead() (uint64, bool) {
	if c.leaseUntil.IsZero() || c.leaseTerm != c.currentTerm {
		return 0, false
	}
	if c.termAt(c.commitIndex) != c.currentTerm {
		return 0, false
	}
	if c.cfg.MaxClockDrift >= 0 && c.now.Before(c.leaseFrom) {
		// The local clock reads earlier than the lease grant: it stepped
		// backward, so the deadline lives in a dead timebase and could
		// overstate validity by the step size. Kill the lease.
		c.invalidateLease()
		return 0, false
	}
	if !c.now.Before(c.leaseUntil) {
		return 0, false // expired; the next clean quorum round re-arms it
	}
	c.reads.LeaseReads++
	if c.mtr != nil {
		c.mtr.Inc("raft_lease_reads", c.mtrLabel)
	}
	return c.commitIndex, true
}

// leaseDuration is how long past a confirmed round's start the leader
// may serve lease reads; <= 0 means leases can never arm (e.g. a drift
// bound as large as the election timeout).
func (c *core) leaseDuration() time.Duration {
	return c.cfg.ElectionTimeoutMin - max(c.cfg.MaxClockDrift, 0) // unsafe mode: no slack
}

// invalidateLease kills a live lease (step-down, clock trouble); reads
// fall back to full confirmation rounds until a clean quorum round re-arms
// it.
func (c *core) invalidateLease() {
	if c.leaseUntil.IsZero() {
		return
	}
	c.leaseFrom, c.leaseUntil = time.Time{}, time.Time{}
	c.reads.LeaseExpiries++
	if c.mtr != nil {
		c.mtr.Inc("raft_lease_expiries", c.mtrLabel)
	}
}

// observeAck folds one same-term append ack into the lease: record the
// round the follower confirmed, check its clock echo against the drift
// bound, and extend — or kill — the lease accordingly.
func (c *core) observeAck(from int, msg appendEntriesResp) {
	if c.leaseDuration() <= 0 {
		return
	}
	c.ackSeq[from] = max(c.ackSeq[from], msg.Seq)
	if c.cfg.MaxClockDrift >= 0 {
		// The estimate includes one message latency, so the effective
		// tolerance is MaxClockDrift minus the network delay — a
		// conservative error: false positives only drop the lease.
		bad := c.now.Sub(msg.LocalTime).Abs() > c.cfg.MaxClockDrift
		c.skewBad[from] = bad
		if bad {
			c.invalidateLease()
			return
		}
	}
	c.maybeExtendLease()
}

// maybeExtendLease arms the lease through leaseDuration past the start of
// the newest heartbeat round confirmed by a quorum of clean-clocked
// followers (the leader is the quorum's +1). The window is overwritten,
// not maxed: after a backward clock step, newer rounds carry earlier
// local timestamps, and keeping the pre-step deadline would overstate
// validity by the step size.
func (c *core) maybeExtendLease() {
	dur := c.leaseDuration()
	if dur <= 0 {
		return
	}
	need := len(c.peers) / 2 // follower acks needed for a quorum
	q := c.hbSeq             // single node: every broadcast self-confirms
	if need > 0 {
		seqs := c.quorumScratch[:0]
		for _, p := range c.peers {
			switch {
			case p == c.id:
			case c.skewBad[p]:
				seqs = append(seqs, 0)
			default:
				seqs = append(seqs, c.ackSeq[p])
			}
		}
		c.quorumScratch = seqs
		q = kthLargest(seqs, need)
	}
	if q == 0 || q <= c.lastLeaseRound {
		return
	}
	start, ok := c.roundStart[q]
	if !ok {
		return // round pruned: too old for its confirmation to matter
	}
	c.lastLeaseRound = q
	c.leaseTerm = c.currentTerm
	c.leaseFrom, c.leaseUntil = start, start.Add(dur)
	for seq := range c.roundStart {
		if seq <= q {
			delete(c.roundStart, seq)
		}
	}
}

// recordRound timestamps a heartbeat round at broadcast for lease
// extension and prunes rounds too old to still extend anything.
func (c *core) recordRound() {
	c.roundStart[c.hbSeq] = c.now
	horizon := c.now.Add(-c.cfg.ElectionTimeoutMin)
	for seq, t := range c.roundStart {
		if t.Before(horizon) {
			delete(c.roundStart, seq)
		}
	}
	if len(c.peers) == 1 {
		c.maybeExtendLease()
	}
}

// resetLeaseState drops all lease bookkeeping (entering or leaving
// leadership); it does not count an expiry by itself.
func (c *core) resetLeaseState() {
	c.leaseFrom, c.leaseUntil = time.Time{}, time.Time{}
	c.lastLeaseRound = 0
	c.roundStart = make(map[uint64]time.Time)
	c.ackSeq = make(map[int]uint64)
	c.skewBad = make(map[int]bool)
}
