package etcd

// Determinism regression tests: the replicated state machine's
// snapshot install path and the lease-expiry delete path must not leak
// Go map iteration order into anything replica-visible. These pin the
// fixed behavior so a reintroduced map range fails loudly instead of
// diverging one replay in a thousand.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestSnapshotRestoreDeterministic: restoring one serialized image
// must install identical state on every replica — same export, and a
// re-serialized image byte-identical to the original. Before the
// sorted-key install, two restores of one snapshot could populate
// their engines in different map orders.
func TestSnapshotRestoreDeterministic(t *testing.T) {
	src := newStateMachine(4)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("/jobs/j%02d/status", (7*i)%32)
		src.apply(uint64(i+1), command{
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

	a := newStateMachine(4)
	b := newStateMachine(4)
	a.restore(img, 32)
	b.restore(img, 32)

	if got, want := a.engine().Export(), b.engine().Export(); !reflect.DeepEqual(got, want) {
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

// TestLeaseRevokeEventOrder: expiring a lease deletes its attached
// keys through the replicated log; watchers must observe those deletes
// in sorted key order, not map order, so replayed schedules see one
// event sequence.
func TestLeaseRevokeEventOrder(t *testing.T) {
	s, _ := newTestStore(t, 3)
	lease, err := s.GrantLease(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"/p/h", "/p/c", "/p/f", "/p/a", "/p/e", "/p/b", "/p/g", "/p/d"}
	for _, k := range keys {
		if err := lease.Put(k, "alive"); err != nil {
			t.Fatal(err)
		}
	}
	events, cancel := s.Watch("/p/")
	defer cancel()

	lease.Revoke()

	got := make([]string, 0, len(keys))
	var lastRev uint64
	for range keys {
		select {
		case ev := <-events:
			if ev.Type != EventDelete {
				t.Fatalf("event = %v, want DELETE", ev)
			}
			if ev.Rev <= lastRev {
				t.Fatalf("revision went backwards: %d after %d", ev.Rev, lastRev)
			}
			lastRev = ev.Rev
			got = append(got, ev.Key)
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out after %d/%d delete events", len(got), len(keys))
		}
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delete order = %v, want sorted %v", got, want)
	}
}
