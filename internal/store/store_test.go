package store

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{})
	t.Cleanup(e.Close)
	return e
}

func TestPutGetDelete(t *testing.T) {
	e := newTestEngine(t)
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
	if _, deleted, err := del(e, "/jobs/j1"); err != nil || !deleted {
		t.Fatalf("delete = (%v,%v)", deleted, err)
	}
	if _, _, ok := e.Get("/jobs/j1"); ok {
		t.Fatal("key survived delete")
	}
	// Deleting an absent key reports false, no error.
	if _, deleted, err := del(e, "/jobs/j1"); err != nil || deleted {
		t.Fatalf("second delete = (%v,%v)", deleted, err)
	}
}

func TestInsertRejectsLiveKey(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Insert("/k", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("/k", 2); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	// A deleted key can be inserted again.
	if _, _, err := del(e, "/k"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("/k", 3); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotScanSeesPointInTime(t *testing.T) {
	e := newTestEngine(t)
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
	kvs := e.ScanAt(nil, "/jobs/", rev)
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
	e := newTestEngine(t)
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
	e := newTestEngine(t)
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

func TestCommitIsAtomicAcrossKeys(t *testing.T) {
	e := newTestEngine(t)
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
	e := newTestEngine(t)
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
	if _, _, err := del(e, "/jobs/j1"); err != nil {
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

func recvStoreEvent(t *testing.T, ch <-chan EventOf[any]) EventOf[any] {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no event delivered")
		return EventOf[any]{}
	}
}

// TestHistoryBoundAndCompaction: a key's chain keeps DefaultHistoryLimit
// versions, and the trim is the engine's only compaction: a read at the
// oldest revision resolves to nothing, while the retained versions and the
// latest value read exactly. TestHistoryEventsBelowTrimmedChain checks
// what the trim does to history reads.
func TestHistoryBoundAndCompaction(t *testing.T) {
	e := newTestEngine(t)
	const puts = DefaultHistoryLimit + 8
	var revs []uint64
	for i := 0; i < puts; i++ {
		r, err := e.Put("/k", i)
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, r)
	}
	e.mu.RLock()
	h := e.keys["/k"]
	n := len(h.versions)
	_, _, oldest := h.at(revs[0])
	recent, _, ok := h.at(revs[puts-2])
	e.mu.RUnlock()
	if n != DefaultHistoryLimit || oldest || !ok || recent != puts-2 {
		t.Fatalf("chain of %d versions; read at the first rev ok=%v, at rev[%d] = (%v,%v)", n, oldest, puts-2, recent, ok)
	}
	if v, _, ok := e.Get("/k"); !ok || v != puts-1 {
		t.Fatalf("latest = (%v,%v), want %d", v, ok, puts-1)
	}
}

// TestScanAtAppends: ScanAt sorts what it adds after whatever the buffer
// already holds and leaves that alone.
func TestScanAtAppends(t *testing.T) {
	e := newTestEngine(t)
	for _, k := range []string{"/s/c", "/s/a", "/s/b"} {
		if _, err := e.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	dst := append(make([]KVOf[any], 0, 8), KVOf[any]{Key: "/z"})
	kvs := e.ScanAt(dst, "/s/", e.Snapshot())
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
// the growth of the map and the sorted index is amortized below one per
// key. The third version moves the chain to the heap, and every version
// stays readable.
func TestNewKeyAllocBudget(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
	defer e.Close()
	const runs = 1000
	keys := make([]string, runs+1) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = fmt.Sprintf("/new/%04d", i)
	}
	var value any = "v"
	ops := make([]Op, 1)
	var evs []EventOf[any]
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
	h := e.keys[keys[0]]
	if len(h.versions) != 3 || &h.versions[0] == &h.inline[0] || h.inline != [2]version[any]{} {
		t.Fatalf("third version: %d versions, inline still holds %v", len(h.versions), h.inline)
	}
	for i, v := range h.versions {
		if got, _, ok := h.at(v.rev); !ok || got != value || (i > 0 && v.rev <= h.versions[i-1].rev) {
			t.Fatalf("version %d (rev %d) reads (%v, %v)", i, v.rev, got, ok)
		}
	}
}

func TestExternalRevsApplyAndImport(t *testing.T) {
	e := NewEngine(Config{ExternalRevs: true})
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
	internal := NewEngine(Config{})
	defer internal.Close()
	if err := internal.Import(img, 8); !errors.Is(err, ErrExternalRevs) {
		t.Fatalf("import on internal engine = %v, want ErrExternalRevs", err)
	}
	e2 := NewEngine(Config{ExternalRevs: true})
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
// ops came in, so two replays of one seed fan out the same events.
func TestCommitEventsReachWatchersInKeyOrder(t *testing.T) {
	e := newTestEngine(t)
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
	e := newTestEngine(t)
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
	e := NewEngine(Config{})
	e.Close()
	if _, err := e.Put("/k", "v"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, _, err := e.Watch("/"); !errors.Is(err, ErrClosed) {
		t.Fatalf("watch err = %v, want ErrClosed", err)
	}
}

// TestConcurrentWritersSnapshotReadersWatchers is the engine's core
// concurrency contract, run under -race in CI: concurrent writers
// commit key pairs atomically while snapshot readers scan (and must
// never observe a torn pair) and a watcher observes events in strictly
// increasing revision order.
func TestConcurrentWritersSnapshotReadersWatchers(t *testing.T) {
	e := newTestEngine(t)

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
				// Yield between scans. A writer woken as the readers drain
				// waits for a CPU, and a reader that never blocks keeps its
				// CPU for a whole time slice: on two CPUs under -race, four
				// spinning readers stretch this test from 0.1 s to 8 s.
				runtime.Gosched()
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
// revision assignment racing lock acquisition: concurrent writers
// to one key must produce a version chain where the latest value is the
// one with the highest revision — Get must agree with the watch
// history's final event.
func TestSameKeyWritersKeepChainOrdered(t *testing.T) {
	e := newTestEngine(t)
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

// TestConcurrentNewKeyWriters is a smoke check, run under -race in CI,
// that writers adding new keys at the same time all land in the ordered
// index: a scan sees every key, once, in key order.
func TestConcurrentNewKeyWriters(t *testing.T) {
	e := newTestEngine(t)
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
	if !slices.IsSortedFunc(kvs, func(a, b KVOf[any]) int { return strings.Compare(a.Key, b.Key) }) {
		t.Fatal("scan is not in key order")
	}
}

// del deletes key through Update, the engine's read-modify-write path,
// and reports whether a live value was removed.
func del[V any](e *EngineOf[V], key string) (uint64, bool, error) {
	return e.Update(key, func(cur V, _ bool) (V, Action, error) { return cur, ActDelete, nil })
}
