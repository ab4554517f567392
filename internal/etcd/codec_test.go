package etcd

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// codecSeeds is one command of every kind the write path produces, the
// Txn with all three lists.
func codecSeeds() []command {
	txn := command{ReqID: 9, Floor: 7, Op: opTxn,
		Cmps: []Cmp{{Key: "/lock", Prev: "owner", PrevExists: true}, {Key: "/absent"}},
		Then: []TxnOp{{Type: EventPut, Key: "/a", Value: "1"}, {Type: EventDelete, Key: "/b"}},
		Else: []TxnOp{{Type: EventPut, Key: "/else", Value: "taken"}}}
	return []command{
		{ReqID: 1, Floor: 1, Op: opPut, Key: "/jobs/j1/status", Value: "RUNNING"},
		{ReqID: 2, Floor: 1, Op: opDelete, Key: "/jobs/j1/status"},
		{ReqID: 3, Floor: 2, Op: opCAS, Key: "/lock", Value: "me", Prev: "you", PrevExists: true},
		{ReqID: 4, Floor: 2, Op: opCAS, Key: "/lock", Value: "me"},
		{ReqID: 8, Floor: 7, Op: opTxn, Cmps: []Cmp{{Key: "/only-guards", Prev: "", PrevExists: true}}},
		txn,
		{ReqID: 10, Op: opPut, Key: "", Value: string(bytes.Repeat([]byte{0xff, 0x00}, 100))},
	}
}

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, want := range codecSeeds() {
		raw := want.encode()
		if len(raw) != want.encodedLen() {
			t.Errorf("op %d: encodedLen %d, encoding is %d bytes", want.Op, want.encodedLen(), len(raw))
		}
		got, ok := decodeCommand(raw)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("op %d: decode(encode(c)) = %+v, %v\nwant %+v", want.Op, got, ok, want)
		}
	}
}

// genCommand draws a command of the shapes propose builds.
func genCommand(r *rand.Rand) command {
	str := func() string {
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return string(b)
	}
	txnOps := func() []TxnOp {
		var out []TxnOp
		for i := r.Intn(3); i > 0; i-- {
			out = append(out, TxnOp{Type: EventType(1 + r.Intn(2)), Key: str(), Value: str()})
		}
		return out
	}
	ops := []opKind{opPut, opDelete, opCAS, opTxn}
	c := command{ReqID: r.Uint64() >> uint(r.Intn(64)), Floor: r.Uint64() >> uint(r.Intn(64)), Op: ops[r.Intn(len(ops))]}
	c.Key, c.Value = str(), str()
	switch c.Op {
	case opCAS:
		c.Prev, c.PrevExists = str(), r.Intn(2) == 0
	case opTxn:
		for i := r.Intn(3); i > 0; i-- {
			c.Cmps = append(c.Cmps, Cmp{Key: str(), Prev: str(), PrevExists: r.Intn(2) == 0})
		}
		c.Then, c.Else = txnOps(), txnOps()
	}
	return c
}

// TestCommandCodecProperty: over generated commands, decoding an encoding
// gives the command back, and no proper prefix of an encoding decodes.
func TestCommandCodecProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		want := genCommand(r)
		raw := want.encode()
		got, ok := decodeCommand(raw)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(encode(c)) = %+v, %v\nwant %+v", got, ok, want)
		}
		cut := r.Intn(len(raw))
		if c, ok := decodeCommand(raw[:cut]); ok {
			t.Fatalf("the first %d of %d bytes decoded to %+v", cut, len(raw), c)
		}
	}
}

// Op 7 with flag bit 4 was the group-commit wrapper: one entry carrying
// several calls' commands, each length-prefixed after the wrapper's own
// fields. The log no longer carries it.
const (
	oldWrapper  = opKind(7)
	oldFlagSubs = 1 << 2
)

// oldWrapperOf encodes subs under op the way the wrapper did.
func oldWrapperOf(op opKind, subs ...[]byte) []byte {
	b := []byte{byte(op), oldFlagSubs, 0, 0, 0, 0, 0, byte(len(subs))}
	for _, sub := range subs {
		b = appendStr(b, string(sub))
	}
	return b
}

// hostileCommands are inputs no encoder wrote: truncations, length
// prefixes and counts far beyond the input, non-canonical varints, flag
// bits out of step with the content, and op kinds the log does not carry
// — among them 4 and 5, the Get and Range that reads once were when they
// went through the log, and 7, the wrapper entries once were when several
// calls shared one.
func hostileCommands() [][]byte {
	put := (&command{ReqID: 1, Op: opPut, Key: "/k", Value: "v"}).encode()
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	subs := [][]byte{(&command{ReqID: 1, Op: opPut, Key: "/k"}).encode(), (&command{ReqID: 2, Op: opPut, Key: "/l"}).encode()}
	inner := oldWrapperOf(oldWrapper, subs...)
	get := (&command{ReqID: 1 << 40, Floor: 1<<40 - 3, Op: opKind(4), Key: "/k"}).encode()
	var seeds [][]byte
	for _, c := range codecSeeds() {
		seeds = append(seeds, c.encode())
	}
	out := [][]byte{
		nil,
		{byte(opPut)},
		put[:len(put)-1],
		append(append([]byte{}, put...), 0), // trailing byte
		append([]byte{byte(opPut), 0, 1, 0}, huge...),                           // key length 2^64-1
		append([]byte{byte(opPut), 0, 1, 0}, 0xff, 0xff, 0xff, 0xff, 0x0f),      // key length 4 GiB
		append(append([]byte{byte(opTxn), flagTxn, 1, 0, 0, 0, 0}, huge...), 1), // 2^64-1 guards
		append([]byte{byte(oldWrapper), oldFlagSubs, 0, 0, 0, 0, 0}, huge...),   // 2^64-1 sub-commands
		{byte(opPut), 0, 0x81, 0x00, 0, 0, 0, 0},                                // request ID 1 written in two bytes
		{byte(opPut), 0x80, 1, 0, 0, 0, 0},                                      // unknown flag bit
		{byte(opPut), flagTxn, 1, 0, 0, 0, 0, 0, 0, 0},                          // flagTxn over three empty lists
		{byte(opTxn), flagTxn, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0},                 // guard's exists byte is 2
		oldWrapperOf(oldWrapper, inner, inner),                                  // nested wrapper
		(&command{Op: oldWrapper, Key: "/no-subs"}).encode(),                    // a wrapper of nothing
		oldWrapperOf(opPut, subs...),                                            // sub-commands under a Put
		get,                                                                     // a Get
		(&command{ReqID: 6, Floor: 6, Op: opKind(5), Key: "/jobs/"}).encode(),   // a Range
		(&command{ReqID: 1, Op: 0, Key: "/k"}).encode(),                         // op 0
		(&command{ReqID: 1, Op: oldWrapper + 1, Key: "/k"}).encode(),            // past the last kind
		oldWrapperOf(oldWrapper, subs[0], get),                                  // a Get inside a wrapper
		oldWrapperOf(oldWrapper, seeds...),                                      // a wrapper of every kind, once a seed
	}
	return out
}

func TestCommandDecoderRejectsHostileInput(t *testing.T) {
	for i, raw := range hostileCommands() {
		if c, ok := decodeCommand(raw); ok {
			t.Errorf("hostile input %d (% x) decoded to %+v", i, raw, c)
		}
	}
}

// allocated runs f and reports the heap bytes the process allocated
// meanwhile (other goroutines' included: callers leave slack).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack is what a decode may allocate beyond its multiple of the
// input: fixed-size results, and whatever the runtime's own goroutines
// allocate while the measurement runs.
const allocSlack = 64 << 10

func FuzzCommandCodec(f *testing.F) {
	for _, c := range codecSeeds() {
		f.Add(c.encode())
	}
	for _, raw := range hostileCommands() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := bytes.Clone(raw)
		var cmd command
		var ok bool
		if got, limit := allocated(func() { cmd, ok = decodeCommand(raw) }), uint64(64*len(raw)+allocSlack); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		// The command is a view of the bytes: decoding must leave them as
		// they were, and must read nothing but them.
		if !bytes.Equal(raw, orig) {
			t.Fatalf("decoding changed its input from % x to % x", orig, raw)
		}
		if own, ownOK := decodeCommand(orig); ownOK != ok || !reflect.DeepEqual(own, cmd) {
			t.Fatalf("decoded % x to %+v, %v; a private copy of it to %+v, %v", raw, cmd, ok, own, ownOK)
		}
		if !ok {
			return
		}
		if again := cmd.encode(); !bytes.Equal(again, raw) {
			t.Fatalf("decoded % x to %+v, which encodes as % x", raw, cmd, again)
		}
		if back, ok := decodeCommand(cmd.encode()); !ok || !reflect.DeepEqual(back, cmd) {
			t.Fatalf("decode(encode(c)) = %+v, %v; want %+v", back, ok, cmd)
		}
	})
}

func snapshotSeeds() [][]byte {
	var kvs []store.KVOf[string]
	for i := 0; i < 20; i++ {
		kvs = append(kvs, store.KVOf[string]{Key: fmt.Sprintf("/jobs/j%02d/status", i), Value: fmt.Sprintf("state-%d", i), Rev: uint64(100 + 7*i)})
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	full := encodeSnapshot(kvs, 41, map[uint64]uint64{41: 230, 44: 233, 42: 231})
	return [][]byte{
		encodeSnapshot(nil, 0, nil),
		encodeSnapshot(kvs[:1], 1, map[uint64]uint64{1: 1}),
		full,
		full[:len(full)/2],
		append(append([]byte{}, full...), 0),
		append([]byte{0}, huge...),    // 2^64-1 keys
		append([]byte{0, 0}, huge...), // 2^64-1 ledger entries
		append([]byte{0, 1}, 0xff, 0xff, 0xff, 0xff, 0x0f), // one key, 4 GiB long
		{0, 2, 1, 'b', 0, 1, 1, 'a', 0, 1, 0},              // keys out of order
		{0, 0, 2, 5, 1, 5, 2},                              // request 5 twice in the ledger
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	seeds := snapshotSeeds()
	for i, raw := range seeds[:3] {
		kvs, floor, ledger, ok := decodeSnapshot(raw)
		if !ok {
			t.Fatalf("seed %d did not decode", i)
		}
		if again := encodeSnapshot(kvs, floor, ledger); !bytes.Equal(again, raw) {
			t.Fatalf("seed %d re-encodes differently", i)
		}
	}
	kvs, floor, ledger, _ := decodeSnapshot(seeds[2])
	if len(kvs) != 20 || kvs[19].Key != "/jobs/j19/status" || kvs[19].Value != "state-19" || kvs[19].Rev != 233 ||
		floor != 41 || !reflect.DeepEqual(ledger, map[uint64]uint64{41: 230, 42: 231, 44: 233}) {
		t.Fatalf("decoded image: %d keys, last %+v, floor %d, ledger %v", len(kvs), kvs[len(kvs)-1], floor, ledger)
	}
	for i, raw := range seeds[3:] {
		if _, _, _, ok := decodeSnapshot(raw); ok {
			t.Errorf("hostile snapshot %d (% x) decoded", i+3, raw)
		}
	}
}

func FuzzSnapshotCodec(f *testing.F) {
	for _, raw := range snapshotSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var kvs []store.KVOf[string]
		var floor uint64
		var ledger map[uint64]uint64
		var ok bool
		if got, limit := allocated(func() { kvs, floor, ledger, ok = decodeSnapshot(raw) }), uint64(64*len(raw)+allocSlack); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if !ok {
			return
		}
		if again := encodeSnapshot(kvs, floor, ledger); !bytes.Equal(again, raw) {
			t.Fatalf("decoded % x, which encodes as % x", raw, again)
		}
		// What decodes also restores: a replica handed these bytes by a
		// leader installs them without complaint.
		sm, ok := restoreStateMachine(raw, 1<<40)
		if !ok {
			t.Fatalf("% x decodes but does not restore", raw)
		}
		if got := sm.eng.Export(); len(got) != len(kvs) {
			t.Fatalf("restored %d keys from an image of %d", len(got), len(kvs))
		}
	})
}

// TestCodecAllocBudget: encoding a command is one allocation (the exactly
// sized buffer); decoding one allocates nothing, its fields being sliced
// out of the payload in place, except one slice per list of a Txn.
// encoding/json paid 20 objects to decode a Put on each replica, a copied
// payload 1.
func TestCodecAllocBudget(t *testing.T) {
	put := command{ReqID: 77, Floor: 70, Op: opPut, Key: "/bench/c0/k0422", Value: string(bytes.Repeat([]byte("v"), 128))}
	txn := codecSeeds()[5] // the Txn with all three lists
	for _, c := range []struct {
		name           string
		cmd            command
		encode, decode float64
	}{
		{"put", put, 1, 0},
		{"txn", txn, 1, 3},
	} {
		raw := c.cmd.encode()
		if got := testing.AllocsPerRun(100, func() { c.cmd.encode() }); got != c.encode {
			t.Errorf("%s: %v allocs per encode, want %v", c.name, got, c.encode)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, ok := decodeCommand(raw); !ok {
				t.Fatal("did not decode")
			}
		}); got != c.decode {
			t.Errorf("%s: %v allocs per decode, want %v", c.name, got, c.decode)
		}
	}
}

// TestReplicasKeepTheLoggedBytes: a replica decodes a command in place, so
// the keys and values its engine holds are slices of the raft entry's
// payload, which all replicas share. A concurrent burst of Puts, Deletes
// and Txns, one entry per call, must leave every replica holding exactly
// the values written and every committed entry's bytes as they were when
// it was proposed. A payload written again after its proposal breaks both.
func TestReplicasKeepTheLoggedBytes(t *testing.T) {
	s, clk := newTestStore(t, 3)
	const writers, rounds = 16, 8

	// The tap copies each entry the first time a node's log shows it. An
	// entry reaches the leader's log when proposed and applies two link
	// delays later at the earliest, so a tap every link delay copies it
	// before its caller can propose again. (index, term) names one entry
	// for good, whatever leadership does.
	type entryID struct{ index, term uint64 }
	proposed := map[entryID][]byte{}
	tap := func() {
		for _, id := range s.ids {
			for _, e := range s.cluster.Node(id).Log() {
				k := entryID{e.Index, e.Term}
				if _, seen := proposed[k]; !seen {
					proposed[k] = bytes.Clone(e.Cmd)
				}
			}
		}
	}
	stopTap, tapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tapped)
		for {
			select {
			case <-stopTap:
				return
			default:
			}
			tap()
			clk.Sleep(time.Millisecond)
		}
	}()

	// Each writer owns its keys, so the final state is its own calls'.
	model := make([]map[string]string, writers)
	props, term := s.Proposals(), leaderTerm(s)
	var wg sync.WaitGroup
	for w := range writers {
		model[w] = map[string]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := func(k string) string { return fmt.Sprintf("/alias/w%02d/%s", w, k) }
			for r := range rounds {
				val := func(k string) string { return fmt.Sprintf("%s@%d%s", key(k), r, strings.Repeat("~", r*w)) }
				if _, err := s.Put(key("a"), val("a")); err != nil {
					t.Error(err)
					return
				}
				model[w][key("a")] = val("a")
				ok, _, err := s.Txn([]Cmp{{Key: key("a"), Prev: val("a"), PrevExists: true}},
					[]TxnOp{{Type: EventPut, Key: key("b"), Value: val("b")}, {Type: EventPut, Key: key("c"), Value: val("c")}},
					[]TxnOp{{Type: EventPut, Key: key("else"), Value: val("else")}})
				if err != nil || !ok {
					t.Errorf("txn: ok=%v: %v", ok, err)
					return
				}
				model[w][key("b")], model[w][key("c")] = val("b"), val("c")
				if r%2 == 1 {
					if err := s.Delete(key("c")); err != nil {
						t.Error(err)
						return
					}
					delete(model[w], key("c"))
				}
			}
		}()
	}
	wg.Wait()
	close(stopTap)
	<-tapped
	if t.Failed() {
		t.FailNow()
	}
	// Without leader churn nothing is re-proposed: each acknowledged write
	// is exactly one log entry: a Put and a Txn a round, a Delete every
	// other round.
	if calls := writers * (2*rounds + rounds/2); leaderTerm(s) == term && s.Proposals()-props != uint64(calls) {
		t.Fatalf("%d calls took %d proposals in one term, want one entry each", calls, s.Proposals()-props)
	}

	want := map[string]string{}
	for _, m := range model {
		maps.Copy(want, m)
	}
	leader := s.leader()
	if leader == nil {
		t.Fatal("no leader after the burst")
	}
	commit := leader.CommitIndex()
	for _, id := range s.ids {
		eng, ok := s.waitApplied(id, commit, 10*time.Second)
		if !ok {
			t.Fatalf("node %d did not apply through %d", id, commit)
		}
		got := map[string]string{}
		for _, kv := range eng.ScanLatest("/alias/") {
			got[kv.Key] = kv.Value
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("node %d holds\n%v\nwant\n%v", id, got, want)
		}
	}
	tap()
	for _, id := range s.ids {
		for _, e := range s.cluster.Node(id).Log() {
			if e.Index > commit {
				break
			}
			if was, seen := proposed[entryID{e.Index, e.Term}]; !seen || !bytes.Equal(e.Cmd, was) {
				t.Errorf("node %d: committed entry %d (term %d) is % x, was proposed as % x", id, e.Index, e.Term, e.Cmd, was)
			}
		}
	}
}
