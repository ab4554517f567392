package etcd

// Determinism regression test: the replicated state machine's snapshot
// install path must not leak Go map iteration order into anything
// replica-visible. It pins the fixed behavior so a reintroduced map range
// fails loudly instead of diverging one replay in a thousand.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotRestoreDeterministic: restoring one serialized image
// must install identical state on every replica — same export, and a
// re-serialized image byte-identical to the original. Before the
// sorted-key install, two restores of one snapshot could populate
// their engines in different map orders.
func TestSnapshotRestoreDeterministic(t *testing.T) {
	src := newStateMachine()
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("/jobs/j%02d/status", (7*i)%32)
		src.apply(uint64(i+1), &command{
			ReqID: uint64(i + 1),
			Op:    opPut,
			Key:   key,
			Value: fmt.Sprintf("state-%d", i),
		})
	}
	img := src.serialize()
	if img == nil {
		t.Fatal("serialize returned nil")
	}

	a, okA := restoreStateMachine(img, 32)
	b, okB := restoreStateMachine(img, 32)
	if !okA || !okB {
		t.Fatal("the image did not restore")
	}

	if got, want := a.eng.Export(), b.eng.Export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("two restores of one image exported different state:\n a=%v\n b=%v", got, want)
	}
	// Round-trip: restore then re-serialize must reproduce the image
	// byte for byte (the image lists keys and ledger entries in sorted
	// order, so any divergence here is real state divergence).
	if !bytes.Equal(a.serialize(), img) {
		t.Fatal("serialize(restore(img)) != img")
	}
	if !bytes.Equal(a.serialize(), b.serialize()) {
		t.Fatal("two restores of one image re-serialize differently")
	}
}

// TestWatchFromBackfillDeterministic: the events of one multi-key revision
// are backfilled in key order on every call, whatever order the Txn listed
// its Puts in.
func TestWatchFromBackfillDeterministic(t *testing.T) {
	s, _ := newTestStore(t, 3)
	const a, b = "/order/a", "/order/b"
	before, err := s.Put("/elsewhere", "x")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := s.Txn(nil, []TxnOp{{Type: EventPut, Key: b, Value: "b"}, {Type: EventPut, Key: a, Value: "a"}}, nil); err != nil || !ok {
		t.Fatalf("txn: ok=%v, %v", ok, err)
	}
	var first []Event
	for call := 0; call < 20; call++ {
		events, cancel, err := s.WatchFrom("/order/", before)
		if err != nil {
			t.Fatal(err)
		}
		got := []Event{recvEvent(t, events), recvEvent(t, events)}
		cancel()
		if got[0].Rev != got[1].Rev || got[0].Key != a || got[1].Key != b {
			t.Fatalf("call %d backfilled %+v, want %s then %s at one revision", call, got, a, b)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d backfilled %+v, call 0 %+v", call, got, first)
		}
	}
}
