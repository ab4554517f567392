package etcd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// opCounter tallies one operation kind, successes and failures apart:
// a timed-out Range is not a scan the platform spent.
type opCounter struct {
	ok   atomic.Uint64
	fail atomic.Uint64
}

// finishOp tallies one completed client operation of the given kind.
// Successes and failures are counted apart — counting before the
// attempt inflated the range count with scans that then timed out. Operations
// that went through the log but lost their application-level race (CAS
// conflict, Txn else-branch) completed successfully for accounting
// purposes.
func (s *Store) finishOp(kind string, c *opCounter, err error) {
	if err != nil {
		c.fail.Add(1)
		if reg := s.mtr.Load(); reg != nil {
			reg.Inc("etcd_client_op_fails", kind)
		}
		return
	}
	c.ok.Add(1)
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("etcd_client_ops", kind)
	}
}

// OpCounts reports every client-operation counter by kind; "<kind>" is
// completed operations, "<kind>_fail" timed-out or rejected ones.
func (s *Store) OpCounts() map[string]uint64 {
	out := make(map[string]uint64, 14)
	for kind, c := range map[string]*opCounter{
		"range": &s.cRange, "put": &s.cPut, "get": &s.cGet,
		"delete": &s.cDelete, "cas": &s.cCAS, "txn": &s.cTxn, "watch": &s.cWatch,
	} {
		out[kind] = c.ok.Load()
		out[kind+"_fail"] = c.fail.Load()
	}
	return out
}

// Put stores value under key.
func (s *Store) Put(key, value string) (rev uint64, err error) {
	res, err := s.propose(command{Op: opPut, Key: key, Value: value})
	s.finishOp("put", &s.cPut, err)
	if err != nil {
		return 0, fmt.Errorf("put %q: %w", key, err)
	}
	return res.rev, nil
}

// Get returns the value stored under key, linearizably. found reports
// existence.
func (s *Store) Get(key string) (value string, found bool, err error) {
	eng, err := s.readIndexRead()
	s.finishOp("get", &s.cGet, err)
	if err != nil {
		return "", false, fmt.Errorf("get %q: %w", key, err)
	}
	value, _, found = eng.Get(key)
	return value, found, nil
}

// Delete removes key. It is not an error to delete a missing key.
func (s *Store) Delete(key string) error {
	_, err := s.propose(command{Op: opDelete, Key: key})
	s.finishOp("delete", &s.cDelete, err)
	if err != nil {
		return fmt.Errorf("delete %q: %w", key, err)
	}
	return nil
}

// Txn atomically evaluates cmps against the current state and applies
// then (all guards hold) or orElse (any guard fails) in a single log
// entry: the branch's mutations commit at one revision, and watchers see
// them together. succeeded reports which branch ran. A read-only
// transaction (both branches empty) is a linearizable read — guard
// evaluation against one local snapshot revision, no log entry — since
// there is nothing to sequence.
func (s *Store) Txn(cmps []Cmp, then, orElse []TxnOp) (succeeded bool, rev uint64, err error) {
	var res result
	if len(then) == 0 && len(orElse) == 0 {
		var eng *store.EngineOf[string]
		if eng, err = s.readIndexRead(); err == nil {
			res = guardsAt(eng, cmps)
		}
	} else {
		res, err = s.propose(command{Op: opTxn, Cmps: cmps, Then: then, Else: orElse})
	}
	s.finishOp("txn", &s.cTxn, err)
	if err != nil {
		return false, 0, fmt.Errorf("txn: %w", err)
	}
	return res.ok, res.rev, nil
}

// guardsAt evaluates a read-only transaction's guards against eng's
// current floor, a fully-installed cut (see scan).
func guardsAt(eng *store.EngineOf[string], cmps []Cmp) result {
	rev := eng.Snapshot()
	for _, c := range cmps {
		v, _, exists := eng.GetAt(c.Key, rev)
		if exists != c.PrevExists || (exists && v != c.Prev) {
			return result{rev: rev}
		}
	}
	return result{ok: true, rev: rev}
}

// Range returns all keys under prefix, sorted by key, linearizably.
func (s *Store) Range(prefix string) ([]KV, error) {
	eng, err := s.readIndexRead()
	return s.scan(eng, err, prefix)
}

// SerializableRange is Range as a stale-tolerant local read: it costs no
// consensus work and stays available without a quorum, and may lag
// acknowledged writes (never return what was not committed). Consumers
// that re-run on a backstop cadence against idempotent actions (the
// LCM's GC sweep) use it.
func (s *Store) SerializableRange(prefix string) ([]KV, error) {
	eng, err := s.serializableRead()
	return s.scan(eng, err, prefix)
}

// scan finishes a Range whose read path returned eng (or err): every key
// under prefix at the engine's current floor — a fully-installed cut,
// since ApplyAt only raises the floor after a revision's ops are all in
// place, so a concurrently applying transaction is seen whole or not at
// all.
func (s *Store) scan(eng *store.EngineOf[string], err error, prefix string) ([]KV, error) {
	s.finishOp("range", &s.cRange, err)
	if err != nil {
		return nil, fmt.Errorf("range %q: %w", prefix, err)
	}
	buf := scanScratch.Get().(*[]store.KVOf[string])
	kvs := eng.ScanAt((*buf)[:0], prefix, eng.Snapshot())
	var out []KV
	if len(kvs) > 0 {
		out = make([]KV, len(kvs))
		for i, kv := range kvs {
			out[i] = KV(kv)
		}
	}
	clear(kvs) // the pool keeps no values alive
	*buf = kvs[:0]
	scanScratch.Put(buf)
	return out, nil
}

// scanScratch holds the engine-side buffers Range scans fill, so a Range
// allocates only the result it returns.
var scanScratch = sync.Pool{New: func() any { return new([]store.KVOf[string]) }}
