package etcd

import "repro/internal/store"

// The replicated state machine: what every replica does with a committed
// log entry, and its snapshot image. It starts no goroutine and takes no
// lock, reads no clock and knows nothing of raft (TestStateMachineIsPure):
// one applier goroutine per replica owns a machine for its whole life, and
// a test can drive one by hand.

// opKind enumerates commands in the replicated log. The values are the
// wire encoding; 4 and 5 were reads and 7 a wrapper of several calls'
// commands, none of which enters the log any more.
type opKind uint8

const (
	opPut opKind = iota + 1
	opDelete
	opCAS
	_
	_
	opTxn
	_
)

// command is the payload of a Raft entry (codec.go has its encoding).
type command struct {
	// ReqID identifies the client call for exactly-once application: the
	// Store numbers its calls 1, 2, 3, ...
	ReqID uint64
	// Floor is the Store's low-water mark when the command was encoded:
	// every call numbered below it had finished, so no copy of one can
	// follow this command in the log and the dedup ledger may forget them.
	Floor uint64
	Op    opKind
	Key   string
	Value string
	// Prev is the expected current value for CAS ("" means
	// must-not-exist when PrevExists is false).
	Prev       string
	PrevExists bool
	Cmps       []Cmp
	Then       []TxnOp
	Else       []TxnOp
}

// result is what applying a command yields (deterministic on every node).
type result struct {
	ok  bool // CAS success / txn branch taken
	rev uint64
}

// stateMachine is the deterministic automaton each replica runs: an
// MVCC engine of string values in external-revision mode (the
// Raft index is the revision) plus the exactly-once dedup ledger. Only its
// applier calls its methods; readers reach the engine, which locks itself,
// and historyEvents, which reads only the engine. A snapshot install
// replaces the whole machine (restoreStateMachine), so eng never changes.
//
// The ledger is bounded the way §6.3 of the Raft thesis bounds client
// sessions: every command carries the Store's low-water mark (the
// smallest request ID still in flight when it was encoded), the ledger
// forgets everything below the highest mark it has seen, and a command
// numbered below that mark can only be a stale copy, so it is a no-op.
type stateMachine struct {
	eng        *store.EngineOf[string]
	dedup      map[uint64]uint64 // reqID -> applied index, reqID >= dedupFloor
	dedupFloor uint64

	// The applier's scratch, cleared by every entry: the ops it installs,
	// the engine's events for them, and their facade form. apply returns
	// the events for the hub to copy.
	ops      []store.OpOf[string]
	storeEvs []store.EventOf[string]
	events   []Event
}

func newStateMachine() *stateMachine {
	return &stateMachine{
		eng:   store.NewEngineOf[string](store.Config{ExternalRevs: true}),
		dedup: make(map[uint64]uint64),
	}
}

// restoreStateMachine builds a machine from a serialized image covering
// the log through snapIndex, or reports a corrupt image. The engine's
// floor starts at snapIndex even when the image's highest key revision is
// older (trailing entries may have been deletes or reads): a read-index
// wait against this replica must see the whole snapshot as applied.
func restoreStateMachine(raw []byte, snapIndex uint64) (*stateMachine, bool) {
	// The image lists keys in sorted order, so every replica restoring it
	// installs them in the same order.
	kvs, floor, ledger, ok := decodeSnapshot(raw)
	if !ok {
		return nil, false
	}
	m := newStateMachine()
	_ = m.eng.Import(kvs, snapIndex) // cannot fail: the engine is external-revs
	m.dedup, m.dedupFloor = ledger, floor
	return m, true
}

// firstApplied runs the exactly-once check for one command at idx: it
// reports the index of the command's first application when this one is a
// copy (a re-proposal that landed twice), and otherwise records idx as
// that first application. It also takes the command's low-water mark.
func (m *stateMachine) firstApplied(idx uint64, cmd *command) (first uint64, dup bool) {
	if cmd.Floor > m.dedupFloor {
		m.dedupFloor = cmd.Floor
		for id := range m.dedup {
			if id < cmd.Floor {
				delete(m.dedup, id)
			}
		}
	}
	if cmd.ReqID < m.dedupFloor {
		return idx, true // every copy's first application is long past
	}
	if first, seen := m.dedup[cmd.ReqID]; seen && first != idx {
		return first, true
	}
	m.dedup[cmd.ReqID] = idx
	return idx, false
}

// applyEntry applies the log entry at idx whose payload is payload, and
// returns the request its call waits under, the command's result and the
// entry's events, valid until the next entry. Raft's no-op barrier (an
// empty payload) and a corrupt entry apply nothing and name no request
// (0), but their index still raises the applied floor: read-index waits
// would stall below it otherwise.
func (m *stateMachine) applyEntry(idx uint64, payload []byte) (reqID uint64, res result, events []Event) {
	cmd, ok := decodeCommand(payload)
	if !ok {
		_ = m.eng.AdvanceFloor(idx)
		return 0, result{}, nil
	}
	res, events = m.apply(idx, &cmd)
	return cmd.ReqID, res, events
}

// historyEvents reconstructs the facade events in (from, to] for keys
// under prefix from this replica's MVCC history.
func (m *stateMachine) historyEvents(prefix string, from, to uint64) ([]Event, error) {
	evs, err := m.eng.HistoryEvents(prefix, from, to)
	if err != nil {
		return nil, err
	}
	out := make([]Event, 0, len(evs))
	for _, ev := range evs {
		out = append(out, Event{Type: EventType(ev.Type), Key: ev.Key, Value: ev.Value, Rev: ev.Rev})
	}
	return out, nil
}

// serialize captures the full state machine for log compaction.
func (m *stateMachine) serialize() []byte {
	return encodeSnapshot(m.eng.Export(), m.dedupFloor, m.dedup)
}

// apply applies one log entry's command at idx and returns its result and
// the entry's events, the applier's scratch: valid until its next entry.
// Every guard is evaluated before the command stages anything, so guards
// read the engine as the previous entry left it, and the op list installs
// in one ApplyAt: installing op by op would raise the applied floor
// mid-entry and let a read-index reader observe half a Txn (the engine's
// same-revision rule — later op wins per key — collapses a branch's
// overwrites).
func (m *stateMachine) apply(idx uint64, cmd *command) (result, []Event) {
	// Exactly-once: a re-proposed command may appear twice in the log;
	// only its first occurrence mutates state.
	if first, dup := m.firstApplied(idx, cmd); dup {
		_ = m.eng.AdvanceFloor(idx)
		return result{rev: first, ok: true}, nil
	}
	res := result{rev: idx}
	ops := m.ops[:0]
	switch cmd.Op {
	case opPut:
		ops = append(ops, store.OpOf[string]{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value})
	case opDelete:
		ops = append(ops, store.OpOf[string]{Kind: store.OpDelete, Key: cmd.Key})
	case opCAS:
		if m.holds(Cmp{Key: cmd.Key, Prev: cmd.Prev, PrevExists: cmd.PrevExists}) {
			ops = append(ops, store.OpOf[string]{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value})
			res.ok = true
		}
	case opTxn:
		res.ok = true
		for _, c := range cmd.Cmps {
			if !m.holds(c) {
				res.ok = false
				break
			}
		}
		branch := cmd.Then
		if !res.ok {
			branch = cmd.Else
		}
		for _, op := range branch {
			kind := store.OpPut
			if op.Type == EventDelete {
				kind = store.OpDelete
			}
			ops = append(ops, store.OpOf[string]{Kind: kind, Key: op.Key, Value: op.Value})
		}
	}
	events := m.install(idx, ops)
	// Raise the applied floor only now, after every write is installed
	// (ApplyAt raises it itself, post-install; this covers failed guards
	// and empty branches). Raising it before the write would let
	// a WaitApplied reader wake at this index and read the pre-write state
	// — a stale read after an acknowledged write. The WatchFrom backfill
	// also compares this floor against the hub's delivery cursor, so every
	// applied index must reach it.
	_ = m.eng.AdvanceFloor(idx)
	return res, events
}

// holds evaluates a guard against the latest applied state.
func (m *stateMachine) holds(c Cmp) bool {
	val, _, exists := m.eng.Get(c.Key)
	return exists == c.PrevExists && (!exists || val == c.Prev)
}

// install applies an entry's ops at idx in one ApplyAt and returns their
// events in facade form. ops must be m.ops, refilled; every buffer here
// is the applier's scratch, so the events are valid until its next entry.
func (m *stateMachine) install(idx uint64, ops []store.OpOf[string]) []Event {
	m.ops = ops // keep whatever the entry grew it to
	if len(ops) == 0 {
		return nil
	}
	m.storeEvs, _ = m.eng.ApplyAt(m.storeEvs[:0], idx, ops)
	m.events = m.events[:0]
	for _, ev := range m.storeEvs {
		m.events = append(m.events, Event{
			Type: EventType(ev.Type), Key: ev.Key, Value: ev.Value, Rev: ev.Rev,
		})
	}
	return m.events
}
