package etcd

import (
	"errors"
	"fmt"
	"testing"
)

// The tests in this file pin the interleavings the store-engine facade
// refactor must preserve: watch delivery while Raft-log compaction runs
// underneath, and the transaction API's atomicity as seen by watchers.

// TestWatchUnderCompaction: a watcher subscribed while the log is being
// snapshotted and compacted every few entries must still observe every
// mutation, in strictly increasing revision order, with no duplicates.
func TestWatchUnderCompaction(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.SetCompactEvery(10)
	events, cancel := s.Watch("/jobs/")
	defer cancel()

	const writes = 60
	for i := 0; i < writes; i++ {
		if _, err := s.Put(fmt.Sprintf("/jobs/j%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var last uint64
	seen := make(map[string]bool)
	for i := 0; i < writes; i++ {
		ev := recvEvent(t, events)
		if ev.Type != EventPut {
			t.Fatalf("event %d = %v, want PUT", i, ev.Type)
		}
		if ev.Rev <= last {
			t.Fatalf("revision order violated under compaction: %d after %d", ev.Rev, last)
		}
		last = ev.Rev
		if seen[ev.Key] {
			t.Fatalf("duplicate event for %s", ev.Key)
		}
		seen[ev.Key] = true
	}
	if len(seen) != writes {
		t.Fatalf("observed %d distinct keys, want %d", len(seen), writes)
	}
	// The log really compacted while the watcher was live.
	compacted := false
	for _, id := range s.cluster.IDs() {
		if n := s.cluster.Node(id); n != nil && len(n.Log()) < writes {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("no node compacted its log during the watch")
	}
}

// TestWatchAcrossNodeCrashDuringCompaction: events keep flowing in order
// when a replica crashes mid-stream and another keeps applying.
func TestWatchAcrossNodeCrashDuringCompaction(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.SetCompactEvery(8)
	events, cancel := s.Watch("/w/")
	defer cancel()

	const writes = 40
	for i := 0; i < writes; i++ {
		if i == writes/2 {
			s.CrashNode(2)
		}
		if _, err := s.Put(fmt.Sprintf("/w/k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	var last uint64
	for i := 0; i < writes; i++ {
		ev := recvEvent(t, events)
		if ev.Rev <= last {
			t.Fatalf("revision order violated across crash: %d after %d", ev.Rev, last)
		}
		last = ev.Rev
	}
}

// TestTxnAtomicBranch: a transaction's mutations commit at a single
// revision — watchers see them together — and guards pick the branch.
func TestTxnAtomicBranch(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/jobs/j1/state", "QUEUED"); err != nil {
		t.Fatal(err)
	}
	events, cancel := s.Watch("/jobs/")
	defer cancel()

	ok, rev, err := s.Txn(
		[]Cmp{{Key: "/jobs/j1/state", Prev: "QUEUED", PrevExists: true}},
		[]TxnOp{
			{Type: EventPut, Key: "/jobs/j1/state", Value: "DEPLOYING"},
			{Type: EventPut, Key: "/jobs/j1/owner", Value: "guardian-0"},
		},
		nil,
	)
	if err != nil || !ok {
		t.Fatalf("txn = (%v,%v)", ok, err)
	}
	ev1, ev2 := recvEvent(t, events), recvEvent(t, events)
	if ev1.Rev != rev || ev2.Rev != rev {
		t.Fatalf("txn events at revs %d,%d, want both %d", ev1.Rev, ev2.Rev, rev)
	}

	// Failing guard runs the else branch.
	ok, _, err = s.Txn(
		[]Cmp{{Key: "/jobs/j1/state", Prev: "QUEUED", PrevExists: true}},
		[]TxnOp{{Type: EventPut, Key: "/jobs/j1/state", Value: "WRONG"}},
		[]TxnOp{{Type: EventPut, Key: "/jobs/j1/conflict", Value: "1"}},
	)
	if err != nil || ok {
		t.Fatalf("guarded txn = (%v,%v), want else branch", ok, err)
	}
	v, _, _ := s.Get("/jobs/j1/state")
	if v != "DEPLOYING" {
		t.Fatalf("state = %q, want DEPLOYING untouched by else branch", v)
	}
	if _, found, _ := s.Get("/jobs/j1/conflict"); !found {
		t.Fatal("else branch did not run")
	}
}

// TestTxnDeleteAndMustNotExistGuard: delete ops and absent-key guards.
func TestTxnDeleteAndMustNotExistGuard(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/locks/a", "owner"); err != nil {
		t.Fatal(err)
	}
	ok, _, err := s.Txn(
		[]Cmp{{Key: "/locks/b", PrevExists: false}},
		[]TxnOp{
			{Type: EventDelete, Key: "/locks/a"},
			{Type: EventPut, Key: "/locks/b", Value: "owner"},
		},
		nil,
	)
	if err != nil || !ok {
		t.Fatalf("txn = (%v,%v)", ok, err)
	}
	if _, found, _ := s.Get("/locks/a"); found {
		t.Fatal("/locks/a survived txn delete")
	}
	if v, _, _ := s.Get("/locks/b"); v != "owner" {
		t.Fatalf("/locks/b = %q", v)
	}
	// Empty guard list always takes the then branch.
	ok, _, err = s.Txn(nil, []TxnOp{{Type: EventPut, Key: "/locks/c", Value: "x"}}, nil)
	if err != nil || !ok {
		t.Fatalf("unguarded txn = (%v,%v)", ok, err)
	}
}

// TestTxnSurvivesCompactionAndRestart: exactly-once transaction effects
// across snapshot/restore, mirroring the CAS coverage in compact_test.
func TestTxnSurvivesCompactionAndRestart(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.SetCompactEvery(10)
	if ok, _, err := s.Txn(
		[]Cmp{{Key: "/seq", PrevExists: false}},
		[]TxnOp{{Type: EventPut, Key: "/seq", Value: "1"}},
		nil,
	); err != nil || !ok {
		t.Fatalf("txn = (%v,%v)", ok, err)
	}
	s.CrashNode(1)
	for i := 0; i < 30; i++ {
		if _, err := s.Put(fmt.Sprintf("/fill/%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	s.RestartNode(1)
	s.CrashNode(0)
	var v string
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var found bool
		v, found, err = s.Get("/seq")
		if err == nil && found {
			break
		}
	}
	if err != nil || v != "1" {
		t.Fatalf("seq after restart = (%q,%v)", v, err)
	}
	// The guard still sees the key: a second must-not-exist txn fails.
	ok, _, err := s.Txn(
		[]Cmp{{Key: "/seq", PrevExists: false}},
		[]TxnOp{{Type: EventPut, Key: "/seq", Value: "2"}},
		nil,
	)
	if err != nil || ok {
		t.Fatalf("duplicate txn = (%v,%v), want guard failure", ok, err)
	}
}

// TestStalledWatcherDoesNotBlockClients: a subscriber that never reads
// (its 128-event buffer overflows) must not stall Put/Get for other
// clients — publishing enqueues to the hub's dispatcher instead of
// blocking the replica appliers.
func TestStalledWatcherDoesNotBlockClients(t *testing.T) {
	s, _ := newTestStore(t, 3)
	_, cancel := s.Watch("/hot/") // never read from
	defer cancel()
	for i := 0; i < 200; i++ {
		if _, err := s.Put(fmt.Sprintf("/hot/k%03d", i), "v"); err != nil {
			t.Fatalf("put %d stalled behind a slow watcher: %v", i, err)
		}
	}
	v, found, err := s.Get("/hot/k199")
	if err != nil || !found || v != "v" {
		t.Fatalf("get = (%q,%v,%v)", v, found, err)
	}
}

// TestWatchAfterClose: subscribing on a closed store yields a dead
// subscription rather than a panic or a hang on cancel.
func TestWatchAfterClose(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.Close()
	events, cancel := s.Watch("/x/")
	cancel()
	select {
	case ev, ok := <-events:
		if ok {
			t.Fatalf("event from closed store: %+v", ev)
		}
	default:
	}
	if err := s.Delete("/x/k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete on closed store = %v, want ErrClosed", err)
	}
}
