package store

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// newHistoryEngine is an ExternalRevs engine, the kind the etcd facade's
// replicas run and read history from.
func newHistoryEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{ExternalRevs: true})
	t.Cleanup(e.Close)
	return e
}

// applyAt installs ops at rev.
func applyAt(t *testing.T, e *Engine, rev uint64, ops ...Op) {
	t.Helper()
	if _, err := e.ApplyAt(nil, rev, ops); err != nil {
		t.Fatal(err)
	}
}

// eventKeys renders events as "rev:TYPE:key" for comparison.
func eventKeys(evs []EventOf[any]) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		kind := "PUT"
		if ev.Type == EventDelete {
			kind = "DEL"
		}
		out[i] = fmt.Sprintf("%d:%s:%s", ev.Rev, kind, ev.Key)
	}
	return out
}

// TestHistoryEventsRevisionThenKeyOrder: the events of a window come back
// sorted by revision and, within one multi-key revision, by key, whatever
// order the ops listed them in; deletes come back as tombstone events, and
// the window is (from, to].
func TestHistoryEventsRevisionThenKeyOrder(t *testing.T) {
	e := newHistoryEngine(t)
	applyAt(t, e, 1, Op{Kind: OpPut, Key: "/jobs/c", Value: "1"}, Op{Kind: OpPut, Key: "/jobs/a", Value: "1"}, Op{Kind: OpPut, Key: "/jobs/b", Value: "1"})
	applyAt(t, e, 2, Op{Kind: OpDelete, Key: "/jobs/a"})
	applyAt(t, e, 5, Op{Kind: OpPut, Key: "/jobs/b", Value: "5"}, Op{Kind: OpPut, Key: "/jobs/a", Value: "5"})
	applyAt(t, e, 6, Op{Kind: OpPut, Key: "/jobs/d", Value: "6"})

	evs, err := e.HistoryEvents("/jobs/", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1:PUT:/jobs/a", "1:PUT:/jobs/b", "1:PUT:/jobs/c", "2:DEL:/jobs/a", "5:PUT:/jobs/a", "5:PUT:/jobs/b", "6:PUT:/jobs/d"}
	if got := eventKeys(evs); !slices.Equal(got, want) {
		t.Fatalf("history = %v, want %v", got, want)
	}
	if evs[4].Value != "5" {
		t.Fatalf("event %v carries %v, want the value written at its revision", want[4], evs[4].Value)
	}

	evs, err = e.HistoryEvents("/jobs/", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eventKeys(evs), []string{"5:PUT:/jobs/a", "5:PUT:/jobs/b"}; !slices.Equal(got, want) {
		t.Fatalf("window (2,5] = %v, want %v", got, want)
	}
}

// TestHistoryEventsFiltersPrefix: only keys under the prefix come back.
func TestHistoryEventsFiltersPrefix(t *testing.T) {
	e := newHistoryEngine(t)
	applyAt(t, e, 1, Op{Kind: OpPut, Key: "/a/k", Value: "1"})
	applyAt(t, e, 2, Op{Kind: OpPut, Key: "/b/k", Value: "2"})
	applyAt(t, e, 3, Op{Kind: OpPut, Key: "/ab", Value: "3"})
	evs, err := e.HistoryEvents("/a/", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eventKeys(evs), []string{"1:PUT:/a/k"}; !slices.Equal(got, want) {
		t.Fatalf("history under /a/ = %v, want %v", got, want)
	}
}

// TestHistoryEventsBelowTrimmedChain: once a hot key overflows
// DefaultHistoryLimit, its trimmed versions raise the resume floor, and a
// window starting below it fails with ErrCompacted instead of coming back
// silently incomplete; a window starting at the floor is whole.
func TestHistoryEventsBelowTrimmedChain(t *testing.T) {
	e := newHistoryEngine(t)
	const writes = DefaultHistoryLimit + 4
	for rev := uint64(1); rev <= writes; rev++ {
		applyAt(t, e, rev, Op{Kind: OpPut, Key: "/hot", Value: fmt.Sprint(rev)})
	}
	floor := e.ResumeFloor()
	if floor != writes-DefaultHistoryLimit {
		t.Fatalf("resume floor = %d, want %d (the newest trimmed revision)", floor, writes-DefaultHistoryLimit)
	}
	if _, err := e.HistoryEvents("/", floor-1, writes); !errors.Is(err, ErrCompacted) {
		t.Fatalf("history from below the trim = %v, want ErrCompacted", err)
	}
	evs, err := e.HistoryEvents("/", floor, writes)
	if err != nil {
		t.Fatalf("history from the floor: %v", err)
	}
	if len(evs) != DefaultHistoryLimit || evs[0].Rev != floor+1 || evs[len(evs)-1].Rev != writes {
		t.Fatalf("history from the floor = %d events over revs %d..%d, want %d over %d..%d",
			len(evs), evs[0].Rev, evs[len(evs)-1].Rev, DefaultHistoryLimit, floor+1, writes)
	}
}
