package raft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
	"time"
)

// The tests in this file step cores by hand: no clock, no goroutine, no
// transport. A message is delivered when the test says so, a timer fires
// when the test says so, and time is whatever the test passes as now.

// envelope is a message a core sent that the test has not delivered yet.
type envelope struct {
	from, to int
	msg      message
}

// cores is a cluster of cores and the messages in flight between them.
type cores struct {
	t       *testing.T
	nodes   []*core
	now     time.Time
	flight  []envelope
	effects []effect // the last step's
}

func newCores(t *testing.T, n int) *cores {
	h := &cores{t: t, now: time.Unix(1000, 0)}
	var peers []int
	for id := 0; id < n; id++ {
		peers = append(peers, id)
	}
	for _, id := range peers {
		c := newCore(id, peers, DefaultConfig(nil), PersistentState{VotedFor: -1})
		c.out = c.out[:0] // the boot announcement: nobody here is idle
		h.nodes = append(h.nodes, c)
	}
	return h
}

// step runs one input on node id at the harness's now and keeps what it
// sent in flight. A step must persist everything it persists before its
// first send: a message may promise only what survives a crash.
func (h *cores) step(id int, in input) {
	h.t.Helper()
	in.now = h.now
	c := h.nodes[id]
	if err := c.Step(in); err != nil {
		h.t.Fatalf("node %d: %v", id, err)
	}
	h.effects = slices.Clone(c.out)
	c.out = c.out[:0]
	sent := false
	for _, e := range h.effects {
		switch e.kind {
		case send:
			sent = true
			m := e.msg
			m.from = id
			h.flight = append(h.flight, envelope{id, e.to, m})
		case persistHardState, persistEntries, persistSnapshot, persistCompact:
			if sent {
				h.t.Fatalf("node %d persisted (effect kind %d) after sending in one step", id, e.kind)
			}
		}
	}
}

// deliver hands over the oldest message in flight from → to, and reports
// whether there was one.
func (h *cores) deliver(from, to int) bool {
	h.t.Helper()
	for i, e := range h.flight {
		if e.from == from && e.to == to {
			h.flight = slices.Delete(h.flight, i, i+1)
			h.step(to, input{kind: inMessage, msg: e.msg})
			return true
		}
	}
	return false
}

// exchange delivers every message between a and b, both ways, until none
// is left; messages to or from anyone else stay in flight.
func (h *cores) exchange(a, b int) {
	h.t.Helper()
	for h.deliver(a, b) || h.deliver(b, a) {
	}
}

// drop forgets every message in flight to or from id.
func (h *cores) drop(id int) {
	h.flight = slices.DeleteFunc(h.flight, func(e envelope) bool { return e.from == id || e.to == id })
}

// elect makes id campaign and win with the votes of voters.
func (h *cores) elect(id int, voters ...int) {
	h.t.Helper()
	h.step(id, input{kind: inElectionTimeout})
	for _, v := range voters {
		h.exchange(id, v)
	}
	if h.nodes[id].state != Leader {
		h.t.Fatalf("node %d did not win term %d with the votes of %v", id, h.nodes[id].currentTerm, voters)
	}
}

// TestCoreVoteRefusedWithinLeaderContact: a follower that heard its leader
// less than ElectionTimeoutMin ago refuses its vote and keeps its term, so
// a candidate cut off from a live leader cannot depose it through the
// followers that still hear it (the bug that let a second leader be
// elected under a live lease). Once the window has passed it votes.
func TestCoreVoteRefusedWithinLeaderContact(t *testing.T) {
	h := newCores(t, 3)
	h.elect(0, 1, 2)
	min := h.nodes[1].cfg.ElectionTimeoutMin

	h.now = h.now.Add(min / 3)
	h.drop(0) // 2 is cut off from the leader
	h.step(2, input{kind: inElectionTimeout})
	h.deliver(2, 1)
	if f := h.nodes[1]; f.currentTerm != 1 || f.votedFor != 0 {
		t.Fatalf("follower with recent leader contact moved to term %d and voted for %d", f.currentTerm, f.votedFor)
	}
	h.deliver(1, 2)
	if h.nodes[2].state == Leader {
		t.Fatal("a candidate cut off from a live leader was elected")
	}

	h.now = h.now.Add(min)
	h.drop(2)
	h.step(2, input{kind: inElectionTimeout})
	h.exchange(2, 1)
	if h.nodes[2].state != Leader {
		t.Fatal("the follower still refused its vote an election timeout after its last leader contact")
	}
}

// TestCoreFigure8: a leader never commits an entry of an earlier term by
// counting its replicas (Raft paper §5.4.2, Figure 8). Node 0 leads term 1
// and appends an entry no one else receives; node 1 leads term 2 without
// it; node 0 wins term 3 and replicates its term-1 entry to node 2 — a
// majority holds it, and it stays uncommitted until an entry of term 3
// commits on top of it.
func TestCoreFigure8(t *testing.T) {
	h := newCores(t, 3)
	h.elect(0, 1, 2)
	h.step(0, input{kind: inPropose, data: []byte("old")})
	h.drop(0)

	min := h.nodes[1].cfg.ElectionTimeoutMin
	h.now = h.now.Add(2 * min)
	h.elect(1, 2)
	h.exchange(1, 0) // node 0 follows term 2 and keeps its entry
	h.drop(1)

	h.now = h.now.Add(2 * min)
	h.elect(0, 2)
	h.exchange(0, 2)
	l := h.nodes[0]
	if l.matchIndex[2] != 1 || l.termAt(1) != 1 {
		t.Fatalf("node 2 holds through %d, entry 1 is of term %d: not the scenario", l.matchIndex[2], l.termAt(1))
	}
	if l.commitIndex != 0 {
		t.Fatalf("leader of term %d committed index %d, an entry of term %d, by counting replicas", l.currentTerm, l.commitIndex, l.termAt(l.commitIndex))
	}
	h.step(0, input{kind: inPropose, data: []byte("new")})
	h.exchange(0, 2)
	if l.commitIndex != 2 {
		t.Fatalf("commit index %d after a term-3 entry reached a majority, want 2", l.commitIndex)
	}
}

// TestCoreLeaseRefusedAfterClockStepsBack: a lease lives on the clock that
// granted it; a reading earlier than the grant means the clock stepped
// back, and the deadline could overstate the lease by the step. The read
// pays a round instead, and the lease is dead.
func TestCoreLeaseRefusedAfterClockStepsBack(t *testing.T) {
	h := newCores(t, 3)
	h.elect(0, 1, 2)
	h.step(0, input{kind: inPropose, data: []byte("w")})
	h.exchange(0, 1)
	h.exchange(0, 2)
	l := h.nodes[0]

	readServed := func(id uint64) bool {
		h.step(0, input{kind: inRead, id: id})
		return slices.ContainsFunc(h.effects, func(e effect) bool { return e.kind == readDone && e.id == id })
	}
	if !readServed(1) {
		t.Fatal("the lease did not serve a read right after a quorum round")
	}
	grant := l.leaseFrom
	h.now = grant.Add(-time.Second)
	if readServed(2) {
		t.Fatalf("a lease granted at %v served a read at %v", grant, h.now)
	}
	if l.reads.LeaseExpiries != 1 || !l.leaseUntil.IsZero() {
		t.Fatalf("lease expiries %d, lease until %v: the stepped-back clock left the lease alive", l.reads.LeaseExpiries, l.leaseUntil)
	}
	if !slices.ContainsFunc(h.effects, func(e effect) bool { return e.kind == send && e.msg.kind == msgAppendEntries }) {
		t.Fatal("the refused read did not start a confirmation round")
	}
}

// TestCoreShippedWindowIsImmutable: an append carries a window of the
// leader's log, not a copy, so nothing may write a shipped slot again. Node
// 0 leads term 1 and ships three entries that no one receives, one append
// per entry, the last from an array with room to spare; it steps down to
// node 1, whose term-2 append truncates and rewrites those indexes; it
// compacts. Every append it shipped must still read as it did when sent —
// a conflict truncation that reused the array would rewrite the last one.
func TestCoreShippedWindowIsImmutable(t *testing.T) {
	h := newCores(t, 3)
	h.elect(0, 1, 2)
	for _, cmd := range []string{"a", "b", "c"} {
		h.step(0, input{kind: inPropose, data: []byte(cmd)})
	}
	type shipped struct {
		entries, copied []Entry
	}
	var sent []shipped
	for _, e := range h.flight {
		if e.from == 0 && e.msg.kind == msgAppendEntries && len(e.msg.app.Entries) > 0 {
			copied := slices.Clone(e.msg.app.Entries)
			for i := range copied {
				copied[i].Cmd = slices.Clone(copied[i].Cmd)
			}
			sent = append(sent, shipped{e.msg.app.Entries, copied})
		}
	}
	if len(sent) != 6 {
		t.Fatalf("node 0 shipped %d appends with entries, want one per entry per follower", len(sent))
	}
	h.drop(0)

	h.now = h.now.Add(2 * h.nodes[1].cfg.ElectionTimeoutMin)
	h.elect(1, 2)
	for _, cmd := range []string{"x", "y", "z"} {
		h.step(1, input{kind: inPropose, data: []byte(cmd)})
	}
	h.exchange(1, 0)
	h.step(1, input{kind: inHeartbeat}) // carries the commit index to node 0
	h.exchange(1, 0)
	f := h.nodes[0]
	if f.state != Follower || f.lastApplied != 3 || string(f.entryAt(3).Cmd) != "z" {
		t.Fatalf("node 0: %v, applied through %d: not the scenario", f.state, f.lastApplied)
	}
	h.step(0, input{kind: inCompact, index: 3, data: []byte("snapshot")})

	for i, s := range sent {
		if !slices.EqualFunc(s.entries, s.copied, func(a, b Entry) bool {
			return a.Index == b.Index && a.Term == b.Term && string(a.Cmd) == string(b.Cmd)
		}) {
			t.Errorf("append %d shipped %v, now reads %v", i, s.copied, s.entries)
		}
	}
}

// TestCoreStaleSnapshotIsAcked: a leader resends its snapshot until the
// ack arrives, so a follower can receive one after it installed it and
// appended past it. The duplicate draws an ack of the follower's commit
// index, which moves the leader on, and leaves the follower's log,
// snapshot and applies as they were.
func TestCoreStaleSnapshotIsAcked(t *testing.T) {
	h := newCores(t, 3)
	h.elect(0, 1, 2)
	for _, cmd := range []string{"a", "b", "c"} {
		h.step(0, input{kind: inPropose, data: []byte(cmd)})
	}
	h.drop(2) // node 2 misses all three
	h.exchange(0, 1)
	l := h.nodes[0]
	h.step(0, input{kind: inCompact, index: l.commitIndex, data: []byte("image")})
	snapIndex := l.snapIndex

	// The next round draws a reject from node 2, and the rewind meets the
	// compacted log.
	h.step(0, input{kind: inHeartbeat})
	h.deliver(0, 2)
	h.deliver(2, 0)
	i := slices.IndexFunc(h.flight, func(e envelope) bool { return e.to == 2 && e.msg.kind == msgInstallSnapshot })
	if i < 0 || snapIndex == 0 {
		t.Fatalf("no snapshot of index %d in flight to node 2: not the scenario", snapIndex)
	}
	dup := h.flight[i].msg
	h.exchange(0, 2)
	h.step(0, input{kind: inPropose, data: []byte("d")})
	h.exchange(0, 2)
	h.step(0, input{kind: inHeartbeat}) // carries the commit index to node 2
	h.exchange(0, 2)
	f := h.nodes[2]
	if f.snapIndex != snapIndex || f.commitIndex != snapIndex+1 || f.lastApplied != snapIndex+1 {
		t.Fatalf("node 2 snapshot %d, commit %d, applied %d: not the scenario", f.snapIndex, f.commitIndex, f.lastApplied)
	}

	log, snapshot := slices.Clone(f.log), f.snapshot
	h.step(2, input{kind: inMessage, msg: dup})
	for _, e := range h.effects {
		switch e.kind {
		case persistHardState, persistEntries, persistSnapshot, persistCompact, deliver:
			t.Errorf("the stale snapshot drew effect kind %d", e.kind)
		}
	}
	var acks []uint64
	for _, e := range h.flight {
		if e.from == 2 && e.msg.kind == msgInstallSnapshotResp {
			acks = append(acks, e.msg.snapResp.LastIndex)
		}
	}
	if !slices.Equal(acks, []uint64{f.commitIndex}) {
		t.Fatalf("the stale snapshot drew acks of %v, want one of commit index %d", acks, f.commitIndex)
	}
	if f.snapIndex != snapIndex || string(f.snapshot) != string(snapshot) || f.lastApplied != snapIndex+1 ||
		!slices.EqualFunc(f.log, log, func(a, b Entry) bool { return a.Index == b.Index && a.Term == b.Term }) {
		t.Fatalf("the stale snapshot moved node 2 to snapshot %d, log %v, applied %d", f.snapIndex, f.log, f.lastApplied)
	}
}

// TestCoreIsClockFree: the core's files read no clock, take no lock and
// start no goroutine, and the driver starts exactly one.
func TestCoreIsClockFree(t *testing.T) {
	goStatements := func(f *ast.File) (n int) {
		ast.Inspect(f, func(x ast.Node) bool {
			if _, ok := x.(*ast.GoStmt); ok {
				n++
			}
			return true
		})
		return n
	}
	fset := token.NewFileSet()
	for _, name := range []string{"core.go", "election.go", "replicate.go", "snapshot.go", "read.go", "cadence.go", "message.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "repro/internal/clock", "sync", "sync/atomic":
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(x ast.Node) bool {
			if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
					t.Errorf("%s calls time.Now at %v", name, fset.Position(sel.Pos()))
				}
			}
			return true
		})
		if n := goStatements(f); n > 0 {
			t.Errorf("%s has %d go statements", name, n)
		}
	}
	f, err := parser.ParseFile(fset, "node.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := goStatements(f); n != 1 {
		t.Errorf("node.go has %d go statements, want 1", n)
	}
}
