package etcd

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/store"
)

// codecSeeds is one command of every kind the write path produces, the
// Txn with all three lists and the wrapper with sub-commands of each kind.
func codecSeeds() []command {
	txn := command{ReqID: 9, Floor: 7, Op: opTxn,
		Cmps: []Cmp{{Key: "/lock", Prev: "owner", PrevExists: true}, {Key: "/absent"}},
		Then: []TxnOp{{Type: EventPut, Key: "/a", Value: "1"}, {Type: EventDelete, Key: "/b"}},
		Else: []TxnOp{{Type: EventPut, Key: "/else", Value: "taken"}}}
	plain := []command{
		{ReqID: 1, Floor: 1, Op: opPut, Key: "/jobs/j1/status", Value: "RUNNING"},
		{ReqID: 2, Floor: 1, Op: opDelete, Key: "/jobs/j1/status"},
		{ReqID: 3, Floor: 2, Op: opCAS, Key: "/lock", Value: "me", Prev: "you", PrevExists: true},
		{ReqID: 4, Floor: 2, Op: opCAS, Key: "/lock", Value: "me"},
		{ReqID: 8, Floor: 7, Op: opTxn, Cmps: []Cmp{{Key: "/only-guards", Prev: "", PrevExists: true}}},
		txn,
		{ReqID: 10, Op: opPut, Key: "", Value: string(bytes.Repeat([]byte{0xff, 0x00}, 100))},
	}
	return append(plain, command{Op: opBatch, Subs: plain})
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

// genCommand draws a command of the shapes propose and replicate build:
// plain commands, and (at depth 0) wrappers of plain commands.
func genCommand(r *rand.Rand, depth int) command {
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
	if depth == 0 && r.Intn(4) == 0 {
		c = command{Op: opBatch}
		for i := 2 + r.Intn(4); i > 0; i-- {
			c.Subs = append(c.Subs, genCommand(r, 1))
		}
	}
	return c
}

// TestCommandCodecProperty: over generated commands, decoding an encoding
// gives the command back, and no proper prefix of an encoding decodes.
func TestCommandCodecProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		want := genCommand(r, 0)
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

// hostileCommands are inputs no encoder wrote: truncations, length
// prefixes and counts far beyond the input, non-canonical varints, flag
// bits out of step with the content, a wrapper inside a wrapper, and op
// kinds the log does not carry — among them 4 and 5, the Get and Range
// that reads once were when they went through the log.
func hostileCommands() [][]byte {
	put := (&command{ReqID: 1, Op: opPut, Key: "/k", Value: "v"}).encode()
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	inner := command{Op: opBatch, Subs: []command{{ReqID: 1, Op: opPut, Key: "/k"}, {ReqID: 2, Op: opPut, Key: "/l"}}}
	get := command{ReqID: 1 << 40, Floor: 1<<40 - 3, Op: opKind(4), Key: "/k"}
	out := [][]byte{
		nil,
		{byte(opPut)},
		put[:len(put)-1],
		append(append([]byte{}, put...), 0), // trailing byte
		append([]byte{byte(opPut), 0, 1, 0}, huge...),                           // key length 2^64-1
		append([]byte{byte(opPut), 0, 1, 0}, 0xff, 0xff, 0xff, 0xff, 0x0f),      // key length 4 GiB
		append(append([]byte{byte(opTxn), flagTxn, 1, 0, 0, 0, 0}, huge...), 1), // 2^64-1 guards
		append([]byte{byte(opBatch), flagSubs, 0, 0, 0, 0, 0}, huge...),         // 2^64-1 sub-commands
		{byte(opPut), 0, 0x81, 0x00, 0, 0, 0, 0},                                // request ID 1 written in two bytes
		{byte(opPut), 0x80, 1, 0, 0, 0, 0},                                      // unknown flag bit
		{byte(opPut), flagTxn, 1, 0, 0, 0, 0, 0, 0, 0},                          // flagTxn over three empty lists
		{byte(opTxn), flagTxn, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0},                 // guard's exists byte is 2
		(&command{Op: opBatch, Subs: []command{inner, inner}}).encode(),         // nested wrapper
		(&command{Op: opBatch, Key: "/no-subs"}).encode(),                       // a wrapper of nothing
		(&command{Op: opPut, Subs: inner.Subs}).encode(),                        // sub-commands under a Put
		get.encode(), // a Get
		(&command{ReqID: 6, Floor: 6, Op: opKind(5), Key: "/jobs/"}).encode(),                    // a Range
		(&command{ReqID: 1, Op: 0, Key: "/k"}).encode(),                                          // op 0
		(&command{ReqID: 1, Op: opBatch + 1, Key: "/k"}).encode(),                                // past the last kind
		(&command{Op: opBatch, Subs: []command{{ReqID: 1, Op: opPut, Key: "/k"}, get}}).encode(), // a Get inside a wrapper
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
		var cmd command
		var ok bool
		if got, limit := allocated(func() { cmd, ok = decodeCommand(raw) }), uint64(64*len(raw)+allocSlack); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
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
	var kvs []store.KV
	for i := 0; i < 20; i++ {
		kvs = append(kvs, store.KV{Key: fmt.Sprintf("/jobs/j%02d/status", i), Value: fmt.Sprintf("state-%d", i), Rev: uint64(100 + 7*i)})
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
		var kvs []store.KV
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
		sm := newStateMachine(2)
		sm.restore(raw, 1<<40)
		if got := sm.engine().Export(); len(got) != len(kvs) {
			t.Fatalf("restored %d keys from an image of %d", len(got), len(kvs))
		}
	})
}

// TestCodecAllocBudget: encoding a command is one allocation (the exactly
// sized buffer), decoding one is one allocation (the string its fields
// are sliced from) plus one per list of a Txn; a wrapper adds its slice
// of sub-commands and one string each. encoding/json paid 20 objects to
// decode a Put on each replica.
func TestCodecAllocBudget(t *testing.T) {
	put := command{ReqID: 77, Floor: 70, Op: opPut, Key: "/bench/c0/k0422", Value: string(bytes.Repeat([]byte("v"), 128))}
	txn := codecSeeds()[5] // the Txn with all three lists
	batch := command{Op: opBatch, Subs: []command{put, put, put}}
	for _, c := range []struct {
		name           string
		cmd            command
		encode, decode float64
	}{
		{"put", put, 1, 1},
		{"txn", txn, 1, 4},
		{"batch of 3", batch, 1, 1 + 1 + 3},
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
