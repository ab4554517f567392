package etcd

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strconv"
	"testing"
)

// TestStateMachineIsPure: the replicated state machine and its codec start
// no goroutine and import neither raft, the clock nor a lock, so a test can
// step replicas by hand (FuzzStateMachineReplay does).
func TestStateMachineIsPure(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"statemachine.go", "codec.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "repro/internal/raft", "repro/internal/clock", "sync", "sync/atomic":
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(x ast.Node) bool {
			if g, ok := x.(*ast.GoStmt); ok {
				t.Errorf("%s starts a goroutine at %v", name, fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// replayNode rebuilds node id's state machine through index end from what
// raft holds for the node, its snapshot and the log after it: by
// determinism, the machine its replica had once it applied end.
func replayNode(t *testing.T, s *Store, id int, end uint64) *stateMachine {
	t.Helper()
	node := s.cluster.Node(id)
	sm := newStateMachine()
	if img, at := node.Snapshot(); at > 0 {
		var ok bool
		if sm, ok = restoreStateMachine(img, at); !ok {
			t.Fatalf("node %d's snapshot at %d does not restore", id, at)
		}
	}
	for _, e := range node.Log() {
		if e.Index > sm.eng.Snapshot() && e.Index <= end {
			sm.applyEntry(e.Index, e.Cmd)
		}
	}
	return sm
}

// replayLog decodes fuzz input into a log and a point to cut it at. The
// first byte is the cut. Each entry then takes a header byte: 0x0c set in
// full makes it raft's empty no-op barrier (nil), otherwise the entry is
// one command; its top two bits raise the floor, which only rises. A
// command takes two bytes: an op and a flag from the first, with a ReqID
// from 1 to 32, so requests recur across entries and below the floor; and
// keys and values from small sets from the second, so guards hold and fail.
func replayLog(data []byte) (cut int, log []*command) {
	if len(data) == 0 {
		return 0, nil
	}
	cut, data = int(data[0]), data[1:]
	keys := [...]string{"/a", "/a/b", "/b", "/c"}
	vals := [...]string{"", "x", "y", "z"}
	floor := uint64(1)
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		floor = min(floor+uint64(h>>6), 24)
		if h&0x0c == 0x0c {
			log = append(log, nil)
			continue
		}
		if len(data) < 2 {
			break
		}
		b, k := data[0], data[1]
		data = data[2:]
		key, val, other, prev := keys[k&3], vals[k>>2&3], keys[k>>4&3], vals[k>>6]
		cmd := &command{ReqID: 1 + uint64(b>>3), Floor: floor}
		switch b & 3 {
		case 0:
			cmd.Op, cmd.Key, cmd.Value = opPut, key, val
		case 1:
			cmd.Op, cmd.Key = opDelete, key
		case 2:
			cmd.Op, cmd.Key, cmd.Value, cmd.Prev, cmd.PrevExists = opCAS, key, val, prev, b&4 != 0
		case 3:
			cmd.Op = opTxn
			cmd.Cmps = []Cmp{{Key: other, Prev: prev, PrevExists: b&4 != 0}}
			cmd.Then = []TxnOp{{Type: EventPut, Key: key, Value: val}}
			cmd.Else = []TxnOp{{Type: EventDelete, Key: other}}
		}
		log = append(log, cmd)
	}
	return cut, log
}

// exactlyOnce is the specification a replica must meet: refModel applying
// each request once, at its first appearance in the log, and never a
// request numbered below the highest floor the log has carried by then,
// its own included.
type exactlyOnce struct {
	state refModel
	first map[uint64]uint64
	floor uint64
}

// apply returns what a replica must yield for the entry at idx: the
// request it completes, the command's result and the events.
func (x *exactlyOnce) apply(idx uint64, cmd *command) (reqID uint64, res result, events []Event) {
	if cmd == nil {
		return 0, result{}, nil
	}
	x.floor = max(x.floor, cmd.Floor)
	first, seen := x.first[cmd.ReqID]
	switch {
	case cmd.ReqID < x.floor:
		return cmd.ReqID, result{rev: idx, ok: true}, nil
	case seen:
		return cmd.ReqID, result{rev: first, ok: true}, nil
	}
	x.first[cmd.ReqID] = idx
	ok, evs := x.state.apply(*cmd)
	guarded := cmd.Op == opCAS || cmd.Op == opTxn
	for _, ev := range evs {
		ev.Rev = idx
		events = append(events, ev)
	}
	return cmd.ReqID, result{rev: idx, ok: guarded && ok}, events
}

// FuzzStateMachineReplay feeds one decoded log, entry payload by entry
// payload, to two fresh state machines, and from the cut on to a third
// restored from the first's image at the cut. Every entry must yield the
// same results and events on each, equal to exactlyOnce's, and at the end
// all three must hold the model's state and serialize to the same bytes.
func FuzzStateMachineReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cut, log := replayLog(data)
		cut %= len(log) + 1
		spec := exactlyOnce{state: refModel{}, first: map[uint64]uint64{}}
		machines := []*stateMachine{newStateMachine(), newStateMachine()}
		for i := 0; ; i++ {
			if i == cut {
				restored, ok := restoreStateMachine(machines[0].serialize(), uint64(i))
				if !ok {
					t.Fatalf("the image at %d does not restore", i)
				}
				machines = append(machines, restored)
			}
			if i == len(log) {
				break
			}
			idx, cmd := uint64(i+1), log[i]
			var payload []byte // raft's no-op barrier
			if cmd != nil {
				payload = cmd.encode()
			}
			wantReq, wantRes, wantEvents := spec.apply(idx, cmd)
			for m, sm := range machines {
				req, res, events := sm.applyEntry(idx, payload)
				if req != wantReq || res != wantRes {
					t.Fatalf("machine %d, entry %d %+v: request %d result %+v, want %d %+v", m, idx, cmd, req, res, wantReq, wantRes)
				}
				if !slices.Equal(events, wantEvents) {
					t.Fatalf("machine %d, entry %d %+v: events %+v, want %+v", m, idx, cmd, events, wantEvents)
				}
			}
		}
		img := machines[0].serialize()
		for m, sm := range machines {
			got := map[string]string{}
			for _, kv := range sm.eng.Export() {
				got[kv.Key] = kv.Value
			}
			if !maps.Equal(got, spec.state) {
				t.Fatalf("machine %d holds %v, want %v", m, got, spec.state)
			}
			if again := sm.serialize(); !bytes.Equal(again, img) {
				t.Fatalf("machine %d serializes to % x, machine 0 to % x", m, again, img)
			}
		}
	})
}
