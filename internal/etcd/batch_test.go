package etcd

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// leaderTerm is the term of the leader the store sees, 0 when it sees
// none: the same reading before and after a burst means no leader churn.
func leaderTerm(s *Store) uint64 {
	if l := s.leader(); l != nil {
		return l.Term()
	}
	return 0
}

// TestWritePathMatchesReferenceModel drives the write path through a
// replicated store and through refModel, the sequential specification,
// and requires every guard outcome and the final key/value state to
// agree. Phase one is sequential, so conflicting guards have one legal
// outcome; phase two is a burst of concurrent clients on disjoint key
// families, whose entries interleave in the log and must still behave as
// if applied one by one.
func TestWritePathMatchesReferenceModel(t *testing.T) {
	s, _ := newTestStore(t, 3)
	model := refModel{}
	run := func(cmd command) bool {
		res, err := s.propose(cmd)
		if err != nil {
			t.Errorf("op %d %s: %v", cmd.Op, cmd.Key, err)
		}
		return res.ok
	}
	check := func(cmd command, got bool) {
		t.Helper()
		want, _ := model.apply(cmd)
		if (cmd.Op == opCAS || cmd.Op == opTxn) && got != want {
			t.Fatalf("op %d %s: guard outcome %v, model says %v", cmd.Op, cmd.Key, got, want)
		}
	}

	var seq []command
	for i := 0; i < 8; i++ {
		seq = append(seq, command{Op: opPut, Key: fmt.Sprintf("/eq/k%d", i), Value: fmt.Sprintf("v%d", i)})
	}
	seq = append(seq,
		command{Op: opPut, Key: "/eq/k3", Value: "overwritten"},
		command{Op: opDelete, Key: "/eq/k5"},
		command{Op: opDelete, Key: "/eq/never-written"},
		// CAS create-if-absent, a conflicting create, a value swap.
		command{Op: opCAS, Key: "/eq/lock", Value: "owner1"},
		command{Op: opCAS, Key: "/eq/lock", Value: "owner2"},
		command{Op: opCAS, Key: "/eq/k0", Prev: "v0", PrevExists: true, Value: "swapped"},
		// Txn on the then-branch, then one that falls to orElse.
		command{Op: opTxn,
			Cmps: []Cmp{{Key: "/eq/lock", Prev: "owner1", PrevExists: true}},
			Then: []TxnOp{{Type: EventPut, Key: "/eq/txn", Value: "then"}, {Type: EventDelete, Key: "/eq/k1"}},
			Else: []TxnOp{{Type: EventPut, Key: "/eq/txn", Value: "else"}}},
		command{Op: opTxn,
			Cmps: []Cmp{{Key: "/eq/lock", Prev: "owner2", PrevExists: true}},
			Then: []TxnOp{{Type: EventDelete, Key: "/eq/txn"}},
			Else: []TxnOp{{Type: EventPut, Key: "/eq/else", Value: "taken"}}},
	)
	for _, cmd := range seq {
		check(cmd, run(cmd))
	}

	const clients = 32
	script := func(c int) []command {
		k := fmt.Sprintf("/eq/c%02d", c)
		return []command{
			{Op: opPut, Key: k, Value: "a"},
			{Op: opCAS, Key: k, Prev: "a", PrevExists: true, Value: "b"},
			{Op: opCAS, Key: k, Prev: "a", PrevExists: true, Value: "stale"},
			{Op: opTxn, Cmps: []Cmp{{Key: k, Prev: "b", PrevExists: true}},
				Then: []TxnOp{{Type: EventPut, Key: k + "/child", Value: "x"}, {Type: EventDelete, Key: k}}},
			{Op: opDelete, Key: k},
		}
	}
	props, term := s.Proposals(), leaderTerm(s)
	got := make([][]bool, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, cmd := range script(c) {
				got[c] = append(got[c], run(cmd))
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for c := 0; c < clients; c++ {
		for i, cmd := range script(c) {
			check(cmd, got[c][i])
		}
	}
	// Without leader churn nothing is re-proposed: each acknowledged write
	// is exactly one log entry.
	if props = s.Proposals() - props; leaderTerm(s) == term && props != clients*5 {
		t.Fatalf("burst of %d commands took %d proposals in one term, want one entry each", clients*5, props)
	}

	kvs, err := s.Range("/eq/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(model) {
		t.Fatalf("store holds %d keys, model %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if want, ok := model[kv.Key]; !ok || want != kv.Value {
			t.Fatalf("key %q: store=%q model=(%q,%v)", kv.Key, kv.Value, want, ok)
		}
	}
}

// TestBatchIntraRoundReadYourWrites: a CAS whose guard depends on a put
// racing it in the same round must observe the put once it applied.
func TestBatchIntraRoundReadYourWrites(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/ryw/seed", "x"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var putErr, casErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, putErr = s.Put("/ryw/key", "base")
	}()
	go func() {
		defer wg.Done()
		// Retry until the put's effect is visible: a CAS applied before
		// the put fails, the first one after it swaps.
		deadline := time.Now().Add(5 * time.Second) //lint:allow wallclock real-time watchdog bounding a spin-retry, virtual clock advances elsewhere
		for {
			casErr = s.CompareAndSwap("/ryw/key", "base", true, "swapped")
			//lint:allow wallclock real-time watchdog bounding a spin-retry, virtual clock advances elsewhere
			if casErr == nil || !errors.Is(casErr, ErrCASFailed) || time.Now().After(deadline) {
				return
			}
		}
	}()
	wg.Wait()
	if putErr != nil || casErr != nil {
		t.Fatalf("put err=%v cas err=%v", putErr, casErr)
	}
	if v, _, _ := s.Get("/ryw/key"); v != "swapped" {
		t.Fatalf("final value %q, want swapped", v)
	}
}

// TestBatchedWritesSurviveLeaderCrash: writes in flight across a leader
// crash must either commit (and then be readable) or fail — never be
// acknowledged and lost. The callers' re-propose path is what is being
// exercised.
func TestBatchedWritesSurviveLeaderCrash(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/crash/seed", "x"); err != nil {
		t.Fatal(err)
	}

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Put(fmt.Sprintf("/crash/k%d", i), fmt.Sprintf("v%d", i))
		}(i)
	}
	if lead := s.LeaderID(); lead >= 0 {
		s.CrashNode(lead)
		defer s.RestartNode(lead)
	}
	wg.Wait()

	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			continue // unacknowledged: allowed to be absent
		}
		v, found, err := s.Get(fmt.Sprintf("/crash/k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("acknowledged write %d lost across leader crash: (%q,%v)", i, v, found)
		}
	}
}

// TestBatchingPreservesZeroProposalReads: reads that each pay a
// read-index round (a zero-length lease) cost zero proposals.
func TestBatchingPreservesZeroProposalReads(t *testing.T) {
	s, _ := newTestStore(t, 3, noLease)
	if _, err := s.Put("/zero/k", "v"); err != nil {
		t.Fatal(err)
	}
	before := s.Proposals()
	for i := 0; i < 50; i++ {
		if _, _, err := s.Get("/zero/k"); err != nil {
			t.Fatal(err)
		}
	}
	if delta := s.Proposals() - before; delta != 0 {
		t.Fatalf("50 read-index reads cost %d proposals, want 0", delta)
	}
}
