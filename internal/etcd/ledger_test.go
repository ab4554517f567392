package etcd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestDedupLedgerStaysBounded applies, to one replica's state machine,
// the log a Store with `window` calls in flight writes over 10 000 calls
// when a third of its proposals are re-proposed: copies of a command land
// once, twice or three times, bare or inside a wrapper, always ahead of
// any command created after the call finished (the order the Raft log
// guarantees, see stateMachine). The ledger must stay within the window
// however long the log grows — it used to gain an entry per call, forever,
// and every snapshot carried all of them — and exactly-once must hold:
// state and event count equal refModel applying each call once.
func TestDedupLedgerStaysBounded(t *testing.T) {
	const (
		calls  = 10000
		window = 4
	)
	r := rand.New(rand.NewSource(6))
	sm := newStateMachine(4)
	model := refModel{}

	var log [][]command // entries: one command bare, several wrapped
	inflight := map[uint64]command{}
	floor := func() uint64 { // the Store's requestFloor
		low := uint64(calls + 1)
		for id := range inflight {
			low = min(low, id)
		}
		return low
	}
	next, events, peak, copies := uint64(1), 0, 0, 0
	for applied := 0; applied < len(log) || next <= calls; {
		// New calls fill the window; those that arrive together share a
		// proposal. Sometimes a call still in flight is proposed again.
		var entry []command
		for len(inflight) < window && next <= calls && r.Intn(3) > 0 {
			cmd := command{ReqID: next, Op: opPut, Key: fmt.Sprintf("/k%d", next%16), Value: fmt.Sprint(next)}
			if next%5 == 0 {
				cmd = command{ReqID: next, Op: opDelete, Key: cmd.Key}
			}
			inflight[next] = cmd
			entry = append(entry, cmd)
			next++
		}
		for i := range entry {
			entry[i].Floor = floor()
		}
		if len(entry) > 0 {
			log = append(log, entry)
			if r.Intn(3) == 0 {
				for n := 1 + r.Intn(2); n > 0; n-- {
					log = append(log, entry)
					copies++
				}
			}
		}
		if applied == len(log) {
			continue
		}

		entry = log[applied]
		applied++
		idx := uint64(applied)
		results, evs := sm.apply(idx, entry)
		events += len(evs)
		for i, cmd := range entry {
			if _, first := inflight[cmd.ReqID]; !first {
				continue
			}
			delete(inflight, cmd.ReqID) // the call returns: complete() ran
			if results[i].rev != idx {
				t.Fatalf("request %d first applied at %d reports revision %d", cmd.ReqID, idx, results[i].rev)
			}
			_, want := model.apply(cmd)
			events -= len(want)
		}
		if events != 0 {
			t.Fatalf("entry %d %+v emitted %d events more than applying each call once", idx, entry, events)
		}
		peak = max(peak, len(sm.dedup))
		if len(sm.dedup) > window+1 {
			t.Fatalf("after entry %d the ledger holds %d requests with %d in flight: %v", idx, len(sm.dedup), len(inflight), sm.dedup)
		}
	}
	got := map[string]string{}
	for _, kv := range sm.engine().Export() {
		got[kv.Key], _ = kv.Value.(string)
	}
	if !reflect.DeepEqual(got, map[string]string(model)) {
		t.Fatalf("state\n got  %v\n want %v", got, model)
	}
	if img := sm.serialize(); len(img) > 1024 {
		t.Fatalf("snapshot of 16 keys after %d calls is %d bytes", calls, len(img))
	}
	t.Logf("%d calls in %d log entries, %d of them copies; ledger peak %d", calls, len(log), copies, peak)
}

// A command numbered below the ledger's floor is a stale copy whatever
// the ledger has forgotten about it, and the floor survives a snapshot.
func TestDedupFloorRejectsForgottenRequests(t *testing.T) {
	sm := newStateMachine(2)
	sm.apply(1, []command{{ReqID: 1, Floor: 1, Op: opPut, Key: "/k", Value: "first"}})
	sm.apply(2, []command{{ReqID: 2, Floor: 2, Op: opPut, Key: "/k", Value: "second"}})
	if _, kept := sm.dedup[1]; kept || sm.dedupFloor != 2 {
		t.Fatalf("ledger %v floor %d after request 2 said everything below it is over", sm.dedup, sm.dedupFloor)
	}
	restored := newStateMachine(2)
	restored.restore(sm.serialize(), 2)
	for _, m := range []*stateMachine{sm, restored} {
		if _, events := m.apply(3, []command{{ReqID: 1, Floor: 1, Op: opPut, Key: "/k", Value: "first"}}); len(events) != 0 {
			t.Fatalf("a copy of forgotten request 1 emitted %v", events)
		}
		if v, _, _ := m.engine().Get("/k"); v != "second" {
			t.Fatalf("a copy of forgotten request 1 wrote %q over \"second\"", v)
		}
		if floor := m.engine().Snapshot(); floor != 3 {
			t.Fatalf("applied floor %d after the stale copy at 3", floor)
		}
	}
}
