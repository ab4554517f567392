package etcd

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/raft"
)

// newTestStore boots an n-way store on a sim clock, its raft config
// adjusted by mods.
func newTestStore(t *testing.T, n int, mods ...func(*raft.Config)) (*Store, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	cfg := raft.DefaultConfig(clk)
	for _, mod := range mods {
		mod(&cfg)
	}
	s := newStore(n, cfg)
	t.Cleanup(func() {
		s.Close()
		clk.Close()
	})
	return s, clk
}

func TestPutGet(t *testing.T) {
	s, _ := newTestStore(t, 3)
	rev, err := s.Put("/jobs/j1/status", "DEPLOYING")
	if err != nil {
		t.Fatal(err)
	}
	if rev == 0 {
		t.Fatal("rev = 0, want > 0")
	}
	v, found, err := s.Get("/jobs/j1/status")
	if err != nil {
		t.Fatal(err)
	}
	if !found || v != "DEPLOYING" {
		t.Fatalf("got (%q,%v), want (DEPLOYING,true)", v, found)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := newTestStore(t, 3)
	_, found, err := s.Get("/nope")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found missing key")
	}
}

func TestDelete(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/k"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.Get("/k"); found {
		t.Fatal("key survived delete")
	}
	// Deleting a missing key is not an error.
	if err := s.Delete("/k"); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s, _ := newTestStore(t, 3)
	// Create-if-absent.
	if err := s.CompareAndSwap("/lock", "", false, "owner1"); err != nil {
		t.Fatal(err)
	}
	// Second create must fail.
	err := s.CompareAndSwap("/lock", "", false, "owner2")
	if !errors.Is(err, ErrCASFailed) {
		t.Fatalf("err = %v, want ErrCASFailed", err)
	}
	// Swap with correct previous value.
	if err := s.CompareAndSwap("/lock", "owner1", true, "owner3"); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get("/lock")
	if v != "owner3" {
		t.Fatalf("value = %q, want owner3", v)
	}
	// Swap with stale previous value fails.
	err = s.CompareAndSwap("/lock", "owner1", true, "owner4")
	if !errors.Is(err, ErrCASFailed) {
		t.Fatalf("err = %v, want ErrCASFailed", err)
	}
}

func TestRangePrefix(t *testing.T) {
	s, _ := newTestStore(t, 3)
	keys := []string{"/jobs/j1/learner/0", "/jobs/j1/learner/1", "/jobs/j2/learner/0"}
	for i, k := range keys {
		if _, err := s.Put(k, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := s.Range("/jobs/j1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("range size = %d, want 2", len(kvs))
	}
	if kvs[0].Key != "/jobs/j1/learner/0" || kvs[1].Key != "/jobs/j1/learner/1" {
		t.Fatalf("range keys = %v", kvs)
	}
}

func TestWatchDeliversEvents(t *testing.T) {
	s, _ := newTestStore(t, 3)
	events, cancel := s.Watch("/jobs/")
	defer cancel()

	if _, err := s.Put("/jobs/j1/status", "PROCESSING"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("/other/key", "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/jobs/j1/status"); err != nil {
		t.Fatal(err)
	}

	ev1 := recvEvent(t, events)
	if ev1.Type != EventPut || ev1.Key != "/jobs/j1/status" || ev1.Value != "PROCESSING" {
		t.Fatalf("event 1 = %+v", ev1)
	}
	ev2 := recvEvent(t, events)
	if ev2.Type != EventDelete || ev2.Key != "/jobs/j1/status" {
		t.Fatalf("event 2 = %+v (want delete, no /other leak)", ev2)
	}
	if ev2.Rev <= ev1.Rev {
		t.Fatalf("revisions not monotone: %d then %d", ev1.Rev, ev2.Rev)
	}
}

func recvEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no event delivered")
		return Event{}
	}
}

func TestMinorityCrashKeepsServing(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Crash one node (minority): the store must keep serving.
	s.CrashNode(0)
	if _, err := s.Put("/k", "v2"); err != nil {
		t.Fatalf("put with minority crashed: %v", err)
	}
	v, found, err := s.Get("/k")
	if err != nil || !found || v != "v2" {
		t.Fatalf("get = (%q,%v,%v), want (v2,true,nil)", v, found, err)
	}
}

func TestLeaderCrashRecovery(t *testing.T) {
	s, clk := newTestStore(t, 3)
	if _, err := s.Put("/k", "v1"); err != nil {
		t.Fatal(err)
	}
	lead := s.LeaderID()
	if lead < 0 {
		t.Fatal("no leader")
	}
	s.CrashNode(lead)
	// Allow failover, then the store must serve again.
	deadline := clk.Now().Add(10 * time.Second)
	var lastErr error
	for clk.Now().Before(deadline) {
		if _, lastErr = s.Put("/k", "v2"); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("store did not recover from leader crash: %v", lastErr)
	}
	v, _, _ := s.Get("/k")
	if v != "v2" {
		t.Fatalf("value = %q, want v2", v)
	}
}

func TestRestartedNodeRejoins(t *testing.T) {
	s, _ := newTestStore(t, 3)
	s.CrashNode(1)
	if _, err := s.Put("/k", "while-down"); err != nil {
		t.Fatal(err)
	}
	s.RestartNode(1)
	// Crash a different node; quorum now depends on the restarted one.
	s.CrashNode(2)
	if _, err := s.Put("/k2", "after-rejoin"); err != nil {
		t.Fatalf("restarted node did not rejoin quorum: %v", err)
	}
	v, found, err := s.Get("/k")
	if err != nil || !found || v != "while-down" {
		t.Fatalf("get = (%q,%v,%v)", v, found, err)
	}
}

func TestStatusUpdateSurvivesCrashes(t *testing.T) {
	// The paper's scenario: the helper controller records learner
	// statuses in etcd; crashes of individual etcd replicas must not
	// lose or reorder status history.
	s, _ := newTestStore(t, 3)
	statuses := []string{"DEPLOYING", "PROCESSING", "STORING", "COMPLETED"}
	for i, st := range statuses {
		key := fmt.Sprintf("/jobs/j1/learner/0/status/%d", i)
		if _, err := s.Put(key, st); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			s.CrashNode(2)
		}
		if i == 2 {
			s.RestartNode(2)
		}
	}
	kvs, err := s.Range("/jobs/j1/learner/0/status/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(statuses) {
		t.Fatalf("history size = %d, want %d", len(kvs), len(statuses))
	}
	for i, kv := range kvs {
		if kv.Value != statuses[i] {
			t.Fatalf("status %d = %q, want %q", i, kv.Value, statuses[i])
		}
	}
}

func TestClosedStoreErrors(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	s := New(3, clk)
	s.Close()
	if _, err := s.Put("/k", "v"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// Property: a sequence of puts to distinct keys is fully readable and
// Range over the common prefix returns exactly the keys written.
func TestQuickPutsAreReadable(t *testing.T) {
	s, _ := newTestStore(t, 3)
	seq := 0
	f := func(vals []string) bool {
		if len(vals) > 8 {
			vals = vals[:8]
		}
		prefix := fmt.Sprintf("/q/%d/", seq)
		seq++
		for i, v := range vals {
			if _, err := s.Put(fmt.Sprintf("%sk%d", prefix, i), v); err != nil {
				return false
			}
		}
		kvs, err := s.Range(prefix)
		if err != nil || len(kvs) != len(vals) {
			return false
		}
		for i, kv := range kvs {
			if kv.Value != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleClusterAllocationBudget: the always-on machinery — heartbeat
// rounds, election-timer resets, quorum math, replication counters — is
// allocation-free on an idle 3-replica store (1 343 objects per virtual
// second before sim-clock events re-armed in place, 240 after — three per
// message: its timer, closure and box — and none since messages travel by
// value on re-armed links). The budget is half an object per message.
// Not parallel: MemStats counts the whole process.
func TestIdleClusterAllocationBudget(t *testing.T) {
	s, clk := newTestStore(t, 3)
	if _, err := s.Put("/warm", "x"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(2 * time.Second) // pools, scratch buffers and the event heap at size

	const idle = 20 // virtual seconds
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clk.Sleep(idle * time.Second)
	runtime.ReadMemStats(&after)
	if perSecond := (after.Mallocs - before.Mallocs) / idle; perSecond > 40 {
		t.Errorf("idle store allocates %d objects per virtual second, budget 40", perSecond)
	} else {
		t.Logf("idle store: %d objects per virtual second", perSecond)
	}
}

// TestReplicatedWriteAllocBudget: a write on a warmed 3-replica store
// allocates what it stores — the encoded entry, which every replica's
// engine keeps slices of, and per replica a Txn's list of ops — and
// nothing around it. Reply channels and wait timers are pooled; raft's
// apply queues and the appliers' event buffers are each reused by the one
// goroutine that owns them; an append
// ships a window of the leader's log, not a copy; a key's first versions
// live inside its history (README, "Replicated write path cost"). Each
// budget is the measured count plus one; before the reuse a Put cost 29, a
// Delete 29 and the Txn 44, before the log windows 9, 9 and 15, and before
// the replicas decoded in place into string engines 7, 4 and 13. Not
// parallel: AllocsPerRun counts the whole process.
func TestReplicatedWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("a call's wait timers are pooled: no budget under -race")
	}
	s, _ := newTestStore(t, 3)
	const warm, runs = 100, 100
	value := strings.Repeat("v", 64)
	doomed := make([]string, 0, warm+runs+1) // AllocsPerRun calls once more to warm up
	for i := 0; i < cap(doomed); i++ {
		doomed = append(doomed, fmt.Sprintf("/budget/doomed/%03d", i))
	}
	both := []TxnOp{{Type: EventPut, Key: "/budget/a", Value: value}, {Type: EventPut, Key: "/budget/b", Value: value}}
	var next int
	cases := []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"put", 2, func() error { _, err := s.Put("/budget/k", value); return err }},
		{"delete", 2, func() error { next++; return s.Delete(doomed[next-1]) }},
		{"txn", 5, func() error { _, _, err := s.Txn(nil, both, nil); return err }},
	}
	for _, k := range doomed {
		if _, err := s.Put(k, value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ { // pools, scratch buffers and version chains at size
		for _, c := range cases {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range cases {
		var err error
		got := testing.AllocsPerRun(runs, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.budget {
			t.Errorf("%s: %v objects per call, budget %v", c.name, got, c.budget)
		} else {
			t.Logf("%s: %v objects per call", c.name, got)
		}
	}
}

// TestLeaseReadAllocBudget: a linearizable read on a warmed 3-replica
// store with a live lease allocates only what it returns. The lease
// answers the read index inside the driver's step (no channel, no waiter),
// the leader's replica has already applied it (no timer, no floor waiter),
// and a Range fills a pooled scratch buffer and copies it into one
// exact-size result. Each budget is the measured count plus one; before
// this a Get cost 7 and a 16-key Range 20. Not parallel: AllocsPerRun
// counts the whole process.
func TestLeaseReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the Range scratch buffers are pooled: no budget under -race")
	}
	s, _ := newTestStore(t, 3)
	for i := 0; i < 16; i++ {
		if _, err := s.Put(fmt.Sprintf("/lease/r/%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		budget float64
		read   func() error
	}{
		{"get", 1, func() error {
			if _, found, err := s.Get("/lease/r/07"); err != nil || !found {
				return fmt.Errorf("found=%v: %v", found, err)
			}
			return nil
		}},
		{"range", 2, func() error {
			if kvs, err := s.Range("/lease/r/"); err != nil || len(kvs) != 16 {
				return fmt.Errorf("%d keys: %v", len(kvs), err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		// A write's round renews the lease; the warm-up reads size the pool.
		if _, err := s.Put("/lease/w", "x"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := c.read(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		leaseReads := s.ReadStats().LeaseReads
		var err error
		got := testing.AllocsPerRun(100, func() {
			if e := c.read(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := s.ReadStats().LeaseReads - leaseReads; n == 0 {
			t.Fatalf("%s: no read was answered from the lease", c.name)
		}
		if got > c.budget {
			t.Errorf("%s: %v objects per call, budget %v", c.name, got, c.budget)
		} else {
			t.Logf("%s: %v objects per call", c.name, got)
		}
	}
}

// TestTimedOutCallKeepsItsReply: a call that gave up takes its waiter
// back before its reply channel goes back to the pool, because its entry
// may still apply and complete send into the channel the waiter names.
// With the followers cut off the call under test times out with its entry
// in the leader's log, sooner than a follower can suspect the leader; the
// heal lets the entry apply after that. Putting the channel back while the
// waiter is still registered makes this fail: the same goroutine's next
// call draws it, takes the stale result for its own and returns before its
// write applied.
func TestTimedOutCallKeepsItsReply(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/t/warm", "x"); err != nil {
		t.Fatal(err)
	}
	lead := s.LeaderID()
	for _, id := range s.Nodes() {
		if id != lead {
			s.PartitionNode(id)
		}
	}
	s.timeout = 50 * time.Millisecond
	if _, err := s.Put("/t/late", "late"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("put with the followers cut off = %v, want ErrTimeout", err)
	}
	s.timeout = defaultRequestTimeout
	for _, id := range s.Nodes() {
		s.HealNode(id)
	}
	for i := 0; i < 50; i++ {
		key, val := fmt.Sprintf("/t/k%02d", i), fmt.Sprintf("v%02d", i)
		rev, err := s.Put(key, val)
		if err != nil {
			t.Fatalf("put %d after the heal: %v", i, err)
		}
		kvs, err := s.Range(key)
		if err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		if len(kvs) != 1 || kvs[0].Value != val || kvs[0].Rev != rev {
			t.Fatalf("put %d of %q returned revision %d, but the key reads %v", i, val, rev, kvs)
		}
	}
	if _, found, err := s.Get("/t/late"); err != nil || !found {
		t.Fatalf("the timed-out put never applied (found=%v, %v): nothing was tested", found, err)
	}
}

// TestTimedOutCallLeavesNothingInFlight: once a call has returned, even
// with ErrTimeout, nothing proposes its command again, so it no longer
// holds down the floor of the replicas' dedup ledgers. Four calls hold
// rounds that cannot commit, with the followers cut off, and a fifth
// times out behind them. When a separate flusher goroutine drained the
// fifth late and kept re-proposing it on a deadline of its own, the fifth
// stayed in flight after its call returned.
func TestTimedOutCallLeavesNothingInFlight(t *testing.T) {
	s, clk := newTestStore(t, 3)
	s.timeout = 2 * time.Second
	if _, err := s.Put("/f/warm", "x"); err != nil {
		t.Fatal(err)
	}
	lead := s.LeaderID()
	for _, id := range s.Nodes() {
		if id != lead {
			s.PartitionNode(id)
		}
	}
	defer func() {
		for _, id := range s.Nodes() {
			s.HealNode(id)
		}
	}()
	var held sync.WaitGroup
	for i := 0; i < 4; i++ {
		proposed := s.Proposals()
		held.Add(1)
		go func() {
			defer held.Done()
			_, _ = s.Put(fmt.Sprintf("/f/hold%d", i), "x")
		}()
		for s.Proposals() == proposed {
			clk.Sleep(time.Millisecond)
		}
	}
	if _, err := s.Put("/f/late", "late"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("put with the followers cut off = %v, want ErrTimeout", err)
	}
	held.Wait()
	s.reqMu.Lock()
	n := len(s.inflight)
	s.reqMu.Unlock()
	if n != 0 {
		t.Fatalf("%d requests in flight after every call returned", n)
	}
	proposed := s.Proposals()
	clk.Sleep(3 * time.Second)
	if more := s.Proposals() - proposed; more != 0 {
		t.Fatalf("%d proposals in the 3 s after every call returned", more)
	}
}
