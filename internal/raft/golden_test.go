package raft

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock/clocktest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_trace.txt from this run")

// sent is one message as the transport saw it leave.
type sent struct {
	at       time.Duration // since the cluster booted
	from, to int
	kind     msgKind
	term     uint64
	index    uint64
}

var kindNames = [...]string{"", "vote", "vote-resp", "append", "append-resp", "read", "read-resp", "snap", "snap-resp", "wake"}

// termIndex is what the trace keeps of a message besides its kind: the
// term it speaks for and the log index it is about.
func termIndex(m message) (uint64, uint64) {
	switch m.kind {
	case msgRequestVote:
		return m.vote.Term, m.vote.LastLogIndex
	case msgRequestVoteResp:
		return m.voteResp.Term, 0
	case msgAppendEntries:
		return m.app.Term, m.app.PrevLogIndex + uint64(len(m.app.Entries))
	case msgAppendEntriesResp:
		return m.appResp.Term, m.appResp.MatchIndex
	case msgReadIndexReq:
		return 0, m.read.ID
	case msgReadIndexResp:
		return 0, m.readResp.Index
	case msgInstallSnapshot:
		return m.snap.Term, m.snap.LastIndex
	case msgInstallSnapshotResp:
		return m.snapResp.Term, m.snapResp.LastIndex
	}
	return 0, 0
}

// TestGoldenTrace pins the protocol's behaviour message by message: a
// three-node cluster on a manual clock makes proposals, serves reads from
// the leader and a follower, loses a follower, compacts without it and
// sends it the snapshot when it is back, has its leader cut off and
// healed, is left alone long enough to go idle, and then pays a read
// round. Every send is recorded as (instant, from, to, kind, term, index)
// and compared with testdata/golden_trace.txt;
// go test ./internal/raft -run TestGoldenTrace -update rewrites it.
//
// Every node's links carry a different extra delay, so that no two
// messages reach one node in the same instant; nothing a node does in an
// instant then depends on which goroutine ran first, and the sends of one
// instant, ordered by sender, are the same on every run.
func TestGoldenTrace(t *testing.T) {
	c, clk := newManualCluster(t, 3)
	start := clk.Now()
	var trace []sent
	c.trans.mu.Lock()
	c.trans.tap = func(at time.Time, from, to int, m message) {
		term, index := termIndex(m)
		trace = append(trace, sent{at.Sub(start), from, to, m.kind, term, index})
	}
	c.trans.mu.Unlock()
	for id, d := range []time.Duration{137 * time.Microsecond, 291 * time.Microsecond, 443 * time.Microsecond} {
		c.Transport().SetNodeDelay(id, d)
	}
	run := func(d time.Duration) { clocktest.Run(clk, d) }
	leader := func() *Node {
		t.Helper()
		l := c.Leader()
		if l == nil {
			t.Fatal("no leader")
		}
		return l
	}
	propose := func(cmds ...string) {
		t.Helper()
		l := leader()
		for _, cmd := range cmds {
			if _, _, err := l.Propose([]byte(cmd)); err != nil {
				t.Fatal(err)
			}
		}
	}
	follower := func(l *Node) int { return followersOf(c, l)[0].ID() }

	run(time.Second)
	propose("a", "b", "c")
	run(100 * time.Millisecond)
	l := leader()
	if _, err := readIndexOn(t, clk, l, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := readIndexOn(t, clk, followersOf(c, l)[1], time.Second); err != nil {
		t.Fatal(err)
	}
	run(200 * time.Millisecond)

	f := follower(l)
	c.Crash(f)
	run(200 * time.Millisecond)
	propose("d", "e")
	run(300 * time.Millisecond)
	if err := leader().Compact(5, []byte("the state machine at index 5")); err != nil {
		t.Fatal(err)
	}
	c.Restart(f)
	run(time.Second)

	old := leader()
	c.Transport().Partition(old.ID())
	run(4 * time.Second)
	c.Transport().Heal(old.ID())
	run(time.Second)
	propose("f")
	run(3 * time.Second)
	if _, err := readIndexOn(t, clk, leader(), time.Second); err != nil {
		t.Fatal(err)
	}
	run(time.Second)

	c.trans.mu.Lock()
	trace = slices.Clone(trace)
	c.trans.mu.Unlock()
	slices.SortStableFunc(trace, func(a, b sent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return a.from - b.from
	})
	var b strings.Builder
	for _, s := range trace {
		fmt.Fprintf(&b, "%v %d->%d %s term=%d index=%d\n", s.at, s.from, s.to, kindNames[s.kind], s.term, s.index)
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_trace.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
