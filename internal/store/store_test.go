package store

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func newTestEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e := NewEngine(Config{Shards: shards})
	t.Cleanup(e.Close)
	return e
}

func TestPutGetDelete(t *testing.T) {
	e := newTestEngine(t, 4)
	rev, err := e.Put("/jobs/j1", "QUEUED")
	if err != nil {
		t.Fatal(err)
	}
	if rev == 0 {
		t.Fatal("rev = 0, want > 0")
	}
	v, vr, ok := e.Get("/jobs/j1")
	if !ok || v != "QUEUED" || vr != rev {
		t.Fatalf("get = (%v,%d,%v), want (QUEUED,%d,true)", v, vr, ok, rev)
	}
	if _, deleted, err := e.Delete("/jobs/j1"); err != nil || !deleted {
		t.Fatalf("delete = (%v,%v)", deleted, err)
	}
	if _, _, ok := e.Get("/jobs/j1"); ok {
		t.Fatal("key survived delete")
	}
	// Deleting an absent key reports false, no error.
	if _, deleted, err := e.Delete("/jobs/j1"); err != nil || deleted {
		t.Fatalf("second delete = (%v,%v)", deleted, err)
	}
}

func TestInsertRejectsLiveKey(t *testing.T) {
	e := newTestEngine(t, 4)
	if _, err := e.Insert("/k", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("/k", 2); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	// A deleted key can be inserted again.
	if _, _, err := e.Delete("/k"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("/k", 3); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotScanSeesPointInTime(t *testing.T) {
	e := newTestEngine(t, 4)
	for i := 0; i < 8; i++ {
		if _, err := e.Put(fmt.Sprintf("/jobs/j%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	rev := e.Snapshot()
	// Later writes are invisible at the captured revision.
	if _, err := e.Put("/jobs/j0", 999); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put("/jobs/j9", 9); err != nil {
		t.Fatal(err)
	}
	kvs, err := e.ScanAt(nil, "/jobs/", rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 8 {
		t.Fatalf("scan size = %d, want 8", len(kvs))
	}
	if kvs[0].Key != "/jobs/j0" || kvs[0].Value != 0 {
		t.Fatalf("kvs[0] = %+v, want old j0", kvs[0])
	}
	// The latest view sees both new writes.
	now, _, err := e.Scan("/jobs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 9 || now[0].Value != 999 {
		t.Fatalf("latest scan = %d keys, first %+v", len(now), now[0])
	}
}

func TestScanVisibilityCoversCompletedWrites(t *testing.T) {
	e := newTestEngine(t, 8)
	// Every write acknowledged before a Scan must be in the scan.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("/v/%03d", i)
		if _, err := e.Put(key, i); err != nil {
			t.Fatal(err)
		}
		kvs, _, err := e.Scan("/v/")
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != i+1 {
			t.Fatalf("after %d puts scan sees %d keys", i+1, len(kvs))
		}
	}
}

func TestUpdateAtomicRMW(t *testing.T) {
	e := newTestEngine(t, 4)
	if _, err := e.Put("/ctr", 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _, err := e.Update("/ctr", func(cur any, exists bool) (any, Action, error) {
					return cur.(int) + 1, ActWrite, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _, _ := e.Get("/ctr")
	if v != 800 {
		t.Fatalf("counter = %v, want 800", v)
	}
}

func TestCommitIsAtomicAcrossShards(t *testing.T) {
	e := newTestEngine(t, 8)
	if _, err := e.Commit([]Op{
		{Kind: OpPut, Key: "/a/1", Value: "x"},
		{Kind: OpPut, Key: "/b/1", Value: "x"},
		{Kind: OpDelete, Key: "/missing"},
	}); err != nil {
		t.Fatal(err)
	}
	a, ra, _ := e.Get("/a/1")
	b, rb, _ := e.Get("/b/1")
	if a != "x" || b != "x" || ra != rb {
		t.Fatalf("commit not atomic: (%v,%d) (%v,%d)", a, ra, b, rb)
	}
}

func TestWatchOrderAndPrefixFilter(t *testing.T) {
	e := newTestEngine(t, 4)
	ch, cancel, err := e.Watch("/jobs/")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := e.Put("/jobs/j1", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put("/other/x", "leak"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Delete("/jobs/j1"); err != nil {
		t.Fatal(err)
	}
	ev1 := recvStoreEvent(t, ch)
	if ev1.Type != EventPut || ev1.Key != "/jobs/j1" || ev1.Value != "a" {
		t.Fatalf("event 1 = %+v", ev1)
	}
	ev2 := recvStoreEvent(t, ch)
	if ev2.Type != EventDelete || ev2.Key != "/jobs/j1" {
		t.Fatalf("event 2 = %+v (want delete, no /other leak)", ev2)
	}
	if ev2.Rev <= ev1.Rev {
		t.Fatalf("revisions not monotone: %d then %d", ev1.Rev, ev2.Rev)
	}
}

func recvStoreEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no event delivered")
		return Event{}
	}
}

func TestHistoryBoundAndCompaction(t *testing.T) {
	e := NewEngine(Config{Shards: 2, HistoryLimit: 4})
	defer e.Close()
	var revs []uint64
	for i := 0; i < 10; i++ {
		r, err := e.Put("/k", i)
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, r)
	}
	// The chain is bounded: a read at the oldest revision resolves to
	// nothing (trimmed), a read at a recent one resolves exactly.
	if v, _, ok := func() (any, uint64, bool) {
		sh := e.shardFor("/k")
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.keys["/k"].at(revs[8])
	}(); !ok || v != 8 {
		t.Fatalf("read at rev[8] = (%v,%v)", v, ok)
	}
	e.Compact(revs[9])
	if _, err := e.ScanAt(nil, "/", revs[5]); !errors.Is(err, ErrCompacted) {
		t.Fatalf("scan below compaction = %v, want ErrCompacted", err)
	}
	// Latest data still readable.
	if v, _, ok := e.Get("/k"); !ok || v != 9 {
		t.Fatalf("get after compact = (%v,%v)", v, ok)
	}
}

// TestScanAtAppends: ScanAt sorts what it adds after whatever the buffer
// already holds and leaves that alone.
func TestScanAtAppends(t *testing.T) {
	e := newTestEngine(t, 4)
	for _, k := range []string{"/s/c", "/s/a", "/s/b"} {
		if _, err := e.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	dst := append(make([]KV, 0, 8), KV{Key: "/z"})
	kvs, err := e.ScanAt(dst, "/s/", e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, kv.Key)
	}
	if want := []string{"/z", "/s/a", "/s/b", "/s/c"}; !slices.Equal(got, want) {
		t.Fatalf("ScanAt appended %v, want %v", got, want)
	}
	if &kvs[0] != &dst[0] {
		t.Fatal("ScanAt did not fill the buffer it was handed")
	}
}

// TestNewKeyAllocBudget: a new key's history keeps its first versions
// inline, so the key and its first rewrite cost one object, the history;
// the growth of the shard's map is amortized below one per key. The third
// version moves the chain to the heap, and every version stays readable.
func TestNewKeyAllocBudget(t *testing.T) {
	e := NewEngine(Config{Shards: 1, ExternalRevs: true})
	defer e.Close()
	const runs = 1000
	keys := make([]string, runs+1) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = fmt.Sprintf("/new/%04d", i)
	}
	var value any = "v"
	ops := make([]Op, 1)
	var evs []Event
	var rev uint64
	apply := func(key string) {
		rev++
		ops[0] = Op{Kind: OpPut, Key: key, Value: value}
		evs, _ = e.ApplyAt(evs[:0], rev, ops)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		apply(keys[next])
		apply(keys[next])
		next++
	}); got != 1 {
		t.Errorf("a new key and its first rewrite: %v objects, want 1", got)
	}

	apply(keys[0])
	sh := e.shardFor(keys[0])
	h := sh.keys[keys[0]]
	if len(h.versions) != 3 || &h.versions[0] == &h.inline[0] || h.inline != [2]version{} {
		t.Fatalf("third version: %d versions, inline still holds %v", len(h.versions), h.inline)
	}
	for i, v := range h.versions {
		if got, _, ok := h.at(v.rev); !ok || got != value || (i > 0 && v.rev <= h.versions[i-1].rev) {
			t.Fatalf("version %d (rev %d) reads (%v, %v)", i, v.rev, got, ok)
		}
	}
}

func TestCompactionDropsDeletedKeys(t *testing.T) {
	e := newTestEngine(t, 2)
	if _, err := e.Put("/gone", "x"); err != nil {
		t.Fatal(err)
	}
	rev, _, err := e.Delete("/gone")
	if err != nil {
		t.Fatal(err)
	}
	e.Compact(rev)
	sh := e.shardFor("/gone")
	sh.mu.RLock()
	_, present := sh.keys["/gone"]
	sh.mu.RUnlock()
	if present {
		t.Fatal("tombstoned key not reclaimed by compaction")
	}
}

func TestExternalRevsApplyAndImport(t *testing.T) {
	e := NewEngine(Config{Shards: 4, ExternalRevs: true})
	defer e.Close()
	if _, err := e.Put("/k", "v"); !errors.Is(err, ErrExternalRevs) {
		t.Fatalf("internal op on external engine = %v", err)
	}
	evs, err := e.ApplyAt(nil, 7, []Op{{Kind: OpPut, Key: "/k", Value: "v"}})
	if err != nil || len(evs) != 1 || evs[0].Rev != 7 {
		t.Fatalf("ApplyAt = (%v,%v)", evs, err)
	}
	if e.Snapshot() != 7 {
		t.Fatalf("floor = %d, want 7", e.Snapshot())
	}
	// Delete of a missing key emits nothing.
	evs, _ = e.ApplyAt(evs[:0], 8, []Op{{Kind: OpDelete, Key: "/none"}})
	if len(evs) != 0 {
		t.Fatalf("spurious delete events: %v", evs)
	}
	img := e.Export()
	internal := NewEngine(Config{Shards: 2})
	defer internal.Close()
	if err := internal.Import(img, 8); !errors.Is(err, ErrExternalRevs) {
		t.Fatalf("import on internal engine = %v, want ErrExternalRevs", err)
	}
	e2 := NewEngine(Config{Shards: 2, ExternalRevs: true})
	defer e2.Close()
	if err := e2.Import(img, 8); err != nil {
		t.Fatal(err)
	}
	if v, rev, ok := e2.Get("/k"); !ok || v != "v" || rev != 7 {
		t.Fatalf("imported = (%v,%d,%v)", v, rev, ok)
	}
	if e2.Snapshot() != 8 {
		t.Fatalf("imported floor = %d, want 8", e2.Snapshot())
	}
}

// TestCommitEventsReachWatchersInKeyOrder: a multi-key commit is one
// revision, and its events reach a watcher in key order whatever order the
// ops came in and whichever shards hold the keys — the hub's (revision,
// key) tie-break — so two replays of one seed fan out the same events.
func TestCommitEventsReachWatchersInKeyOrder(t *testing.T) {
	e := newTestEngine(t, 4)
	keys := []string{"p/h", "p/c", "p/f", "p/a", "p/e", "p/b", "p/g", "p/d"}
	ch, cancel, err := e.Watch("p/")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ops := make([]Op, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: "x"})
	}
	rev, err := e.Commit(ops)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for range keys {
		select {
		case ev := <-ch:
			if ev.Rev != rev {
				t.Fatalf("event %+v at revision %d, want the commit's %d", ev, ev.Rev, rev)
			}
			got = append(got, ev.Key)
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out after %d/%d events", len(got), len(keys))
		}
	}
	want := slices.Sorted(slices.Values(keys))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want sorted %v", got, want)
	}
}

// TestWatchCancelReclaimsCursor: cancelling a watcher takes it out of the
// hub's fan-out at once, and a second cancel is harmless.
func TestWatchCancelReclaimsCursor(t *testing.T) {
	e := newTestEngine(t, 2)
	_, cancel, err := e.Watch("a/")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.hub.Watchers(); got != 1 {
		t.Fatalf("watchers = %d, want 1", got)
	}
	cancel()
	if got := e.hub.Watchers(); got != 0 {
		t.Fatalf("watchers = %d after cancel, want 0", got)
	}
	cancel()
}

func TestClosedEngineRejectsWrites(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	e.Close()
	if _, err := e.Put("/k", "v"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, _, err := e.Watch("/"); !errors.Is(err, ErrClosed) {
		t.Fatalf("watch err = %v, want ErrClosed", err)
	}
}

// TestConcurrentWritersSnapshotReadersWatchers is the engine's core
// concurrency contract, run under -race in CI: cross-shard writers
// commit key pairs atomically while snapshot readers scan (and must
// never observe a torn pair) and a watcher observes events in strictly
// increasing revision order.
func TestConcurrentWritersSnapshotReadersWatchers(t *testing.T) {
	e := newTestEngine(t, 8)

	const (
		writers = 8
		pairs   = 32
		opsEach = 150
	)

	ch, cancel, err := e.Watch("/pair/")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	watchDone := make(chan error, 1)
	go func() {
		var last uint64
		seen := 0
		for ev := range ch {
			if ev.Rev < last {
				watchDone <- fmt.Errorf("watch order violated: rev %d after %d", ev.Rev, last)
				return
			}
			last = ev.Rev
			seen++
			if seen >= 2*writers*opsEach {
				watchDone <- nil
				return
			}
		}
	}()

	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				kvs, _, err := e.Scan("/pair/")
				if err != nil {
					readerErr <- err
					return
				}
				vals := make(map[string]any, len(kvs))
				for _, kv := range kvs {
					vals[kv.Key] = kv.Value
				}
				for i := 0; i < pairs; i++ {
					a, aok := vals[fmt.Sprintf("/pair/a/%02d", i)]
					b, bok := vals[fmt.Sprintf("/pair/b/%02d", i)]
					if aok != bok || (aok && a != b) {
						readerErr <- fmt.Errorf("torn pair %d: (%v,%v) (%v,%v)", i, a, aok, b, bok)
						return
					}
				}
			}
		}()
	}

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < opsEach; i++ {
				p := (w*opsEach + i) % pairs
				v := fmt.Sprintf("w%d-%d", w, i)
				if _, err := e.Commit([]Op{
					{Kind: OpPut, Key: fmt.Sprintf("/pair/a/%02d", p), Value: v},
					{Kind: OpPut, Key: fmt.Sprintf("/pair/b/%02d", p), Value: v},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stopRead)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	select {
	case err := <-watchDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watcher did not observe all events")
	}
}

// TestSameKeyWritersKeepChainOrdered is the regression test for
// revision assignment racing shard-lock acquisition: concurrent writers
// to one key must produce a version chain where the latest value is the
// one with the highest revision — Get must agree with the watch
// history's final event.
func TestSameKeyWritersKeepChainOrdered(t *testing.T) {
	e := newTestEngine(t, 4)
	const writers, ops = 8, 200
	var mu sync.Mutex
	var maxRev uint64
	maxVal := ""
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				rev, err := e.Put("/hot", v)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if rev > maxRev {
					maxRev, maxVal = rev, v
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	v, rev, ok := e.Get("/hot")
	if !ok || rev != maxRev || v != maxVal {
		t.Fatalf("latest = (%v,%d), want (%v,%d): version chain out of revision order", v, rev, maxVal, maxRev)
	}
}

// TestMultiShardParallelism is a smoke check that distinct shards accept
// writes concurrently (no global serialization): it just exercises the
// cross-shard path; the throughput claim lives in BenchmarkMetadataStore.
func TestMultiShardParallelism(t *testing.T) {
	e := newTestEngine(t, 16)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := e.Put(fmt.Sprintf("/w%02d/%d", w, i), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	kvs, _, err := e.Scan("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 16*200 {
		t.Fatalf("scan = %d keys, want %d", len(kvs), 16*200)
	}
}
