// Package store is the platform's metadata-plane engine: a sharded,
// multi-version (MVCC) key-value store that the mongo and etcd
// substrates are thin facades over. The design follows the recipe of
// Faleiro & Abadi's "Rethinking serializable multiversion concurrency
// control": separate the *ordering* of writes from their *execution* so
// the store scales with cores instead of serializing on one lock.
//
//   - Keys are hash-sharded; every shard has its own lock, so writers to
//     different shards never contend.
//   - A global revision is assigned per write by a lock-free ring "gate"
//     (the disciplined ordering layer). The gate tracks the *floor*: the
//     highest revision R such that every revision <= R is installed.
//   - Reads are MVCC snapshots at the floor: Scan walks per-key version
//     chains holding only brief per-shard read locks, so list/scan never
//     blocks writers. Snapshot acquisition waits until the floor covers
//     every write that completed before the read began, which keeps
//     reads real-time-consistent with acknowledged writes.
//   - Watches are driven by per-shard apply logs merged into revision
//     order by the hub, so watchers observe a single serial history.
//   - Version chains are bounded (HistoryLimit) and Compact discards
//     history below a revision, like etcd's compaction.
//
// The engine has two revision modes. In the default internal mode it
// assigns revisions itself. In ExternalRevs mode the caller supplies
// revisions (a replicated-log apply loop — the etcd facade feeds it raft
// indexes), and the engine is a deterministic state machine.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Common errors.
var (
	// ErrClosed indicates the engine has been shut down.
	ErrClosed = errors.New("store: engine closed")
	// ErrExists indicates Insert found a live value under the key.
	ErrExists = errors.New("store: key exists")
	// ErrCompacted indicates the requested revision predates compaction.
	ErrCompacted = errors.New("store: revision compacted")
	// ErrExternalRevs indicates an internal-revision operation was called
	// on an engine in ExternalRevs mode (or vice versa).
	ErrExternalRevs = errors.New("store: wrong revision mode")
)

// Defaults completed by NewEngine.
const (
	// DefaultShards is the shard count when Config.Shards is zero.
	DefaultShards = 16
	// DefaultHistoryLimit bounds the per-key version chain.
	DefaultHistoryLimit = 32
)

// EventType distinguishes watch events.
type EventType int

// Watch event kinds.
const (
	EventPut EventType = iota + 1
	EventDelete
)

// Event is one change in the store's serial history.
type Event struct {
	Type  EventType
	Key   string
	Value any
	Rev   uint64
}

// EventKey implements Keyed for the watch hub.
func (e Event) EventKey() string { return e.Key }

// EventRev implements Keyed for the watch hub.
func (e Event) EventRev() uint64 { return e.Rev }

// KV is a key with its value and last-modification revision.
type KV struct {
	Key   string
	Value any
	Rev   uint64
}

// OpKind enumerates mutations accepted by Commit/ApplyAt.
type OpKind int

// Mutation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
)

// Op is one mutation in a multi-key commit.
type Op struct {
	Kind  OpKind
	Key   string
	Value any
}

// Action is what an Update callback decides to do with the key.
type Action int

// Update actions.
const (
	// ActSkip leaves the key untouched (no event, no new version).
	ActSkip Action = iota
	// ActWrite installs the returned value as a new version.
	ActWrite
	// ActDelete writes a tombstone (no-op when the key is absent).
	ActDelete
)

// Config parameterizes an Engine. The zero value gets defaults.
type Config struct {
	// Shards is the number of hash shards (default DefaultShards).
	Shards int
	// HistoryLimit bounds each key's retained version chain (default
	// DefaultHistoryLimit). Older versions are trimmed opportunistically.
	HistoryLimit int
	// ExternalRevs switches the engine to replicated-log mode: the
	// caller supplies monotone revisions via ApplyAt, and internal-mode
	// operations (Put, Update, Commit, Watch) are rejected.
	ExternalRevs bool
}

// version is one entry in a key's MVCC chain.
type version struct {
	rev  uint64
	val  any
	tomb bool
}

// history is a key's version chain, ascending by revision. Its first
// versions live in inline, so a new key and its first rewrite cost one
// allocation, the history itself; the chain moves to the heap only when
// it outgrows inline.
type history struct {
	versions []version
	inline   [2]version
}

func newHistory() *history {
	h := &history{}
	h.versions = h.inline[:0]
	return h
}

// push appends v to the chain.
func (h *history) push(v version) {
	moves := len(h.versions) == cap(h.versions)
	h.versions = append(h.versions, v)
	if moves {
		clear(h.inline[:]) // nothing points into it now: keep no values alive
	}
}

// at returns the live value visible at rev.
func (h *history) at(rev uint64) (any, uint64, bool) {
	for i := len(h.versions) - 1; i >= 0; i-- {
		v := h.versions[i]
		if v.rev > rev {
			continue
		}
		if v.tomb {
			return nil, 0, false
		}
		return v.val, v.rev, true
	}
	return nil, 0, false
}

// latest returns the newest installed value (tombstones read as absent).
func (h *history) latest() (any, uint64, bool) {
	if len(h.versions) == 0 {
		return nil, 0, false
	}
	v := h.versions[len(h.versions)-1]
	if v.tomb {
		return nil, 0, false
	}
	return v.val, v.rev, true
}

// shard owns a hash slice of the keyspace.
type shard struct {
	idx  int
	mu   sync.RWMutex
	keys map[string]*history
	// log is the shard's apply log: events appended by writers under mu,
	// drained (merged into revision order across shards) by the hub.
	log []Event
}

// instrumentation is the optional metrics hookup, installed atomically
// so commit paths can check it without a lock.
type instrumentation struct {
	reg         *metrics.Registry
	name        string
	shardLabels []string
}

// Engine is the sharded MVCC store.
type Engine struct {
	shards   []*shard
	hist     int
	external bool

	gate *gate       // internal mode: revision ordering layer
	hub  *Hub[Event] // internal mode: watch dispatch

	extFloor  atomic.Uint64 // external mode: last applied revision
	compacted atomic.Uint64
	// truncated is the highest revision dropped from a version chain by
	// per-key history trimming or snapshot import; together with the
	// compaction floor it bounds how far back WatchFrom can backfill.
	truncated atomic.Uint64
	closed    atomic.Bool

	instr atomic.Pointer[instrumentation]

	// Applied-floor waiters (WaitApplied). hasWaiters lets the floor-raise
	// hot paths skip the lock when nobody is waiting.
	waitMu     sync.Mutex
	waiters    []floorWaiter
	hasWaiters atomic.Bool

	drainWake chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
}

// floorWaiter is one WaitApplied registration: ch closes when the
// applied floor reaches rev.
type floorWaiter struct {
	rev uint64
	ch  chan struct{}
}

// install appends a version to key's chain in sh, bounding its length
// and accounting any dropped history against the truncation floor.
// Callers hold sh.mu.
func (e *Engine) install(sh *shard, key string, v version) {
	h := sh.keys[key]
	if h == nil {
		h = newHistory()
		sh.keys[key] = h
	}
	if n := len(h.versions); n > 0 && h.versions[n-1].rev == v.rev {
		// Same-revision rewrite (multi-op commit touching one key twice):
		// the later op wins within the revision.
		h.versions[n-1] = v
		return
	}
	h.push(v)
	if drop := len(h.versions) - e.hist; drop > 0 {
		raiseMax(&e.truncated, h.versions[drop-1].rev)
		h.versions = h.versions[drop:]
		e.countDrops(drop)
	}
	if in := e.instr.Load(); in != nil {
		in.reg.Inc("store_shard_commits", in.name, in.shardLabels[sh.idx])
	}
}

// countDrops accumulates versions discarded from history (trimming or
// compaction) into the drop counter.
func (e *Engine) countDrops(n int) {
	if in := e.instr.Load(); in != nil && n > 0 {
		in.reg.Add("store_history_drops", float64(n), in.name)
	}
}

// raiseMax lifts a to at least v.
func raiseMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NewEngine builds an engine from cfg (zero fields take defaults).
func NewEngine(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.HistoryLimit <= 0 {
		cfg.HistoryLimit = DefaultHistoryLimit
	}
	e := &Engine{
		shards:   make([]*shard, cfg.Shards),
		hist:     cfg.HistoryLimit,
		external: cfg.ExternalRevs,
	}
	for i := range e.shards {
		e.shards[i] = &shard{idx: i, keys: make(map[string]*history)}
	}
	if !e.external {
		e.gate = newGate()
		e.hub = NewHub[Event]()
		e.drainWake = make(chan struct{}, 1)
		e.stop = make(chan struct{})
		go e.drainLoop()
	}
	return e
}

// Close shuts the engine down. Watchers stop receiving events; further
// writes fail with ErrClosed.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	if !e.external {
		e.stopOnce.Do(func() { close(e.stop) })
		e.hub.Close()
	}
}

// Shards reports the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Instrument publishes the engine's operational metrics into reg under
// the given name label: per-shard commit counts, snapshot floor lag,
// history-drop counts, and (internal mode) the watch hub's queue depth.
// Call once, before the engine starts serving traffic.
func (e *Engine) Instrument(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	in := &instrumentation{reg: reg, name: name, shardLabels: make([]string, len(e.shards))}
	for i := range e.shards {
		in.shardLabels[i] = fmt.Sprintf("shard-%d", i)
	}
	e.instr.Store(in)
	if e.hub != nil {
		e.hub.Instrument(reg, name)
	}
}

// Hash32 is the FNV-1a string hash used for shard and stripe selection
// across the metadata plane.
func Hash32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// shardFor hashes key to its owning shard.
func (e *Engine) shardFor(key string) *shard {
	return e.shards[Hash32(key)%uint32(len(e.shards))]
}

func (e *Engine) writableInternal() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.external {
		return fmt.Errorf("%w: internal-revision op on ExternalRevs engine", ErrExternalRevs)
	}
	return nil
}

// finish retires rev in the gate and wakes the hub drain when the floor
// moved (newly contiguous history may be deliverable to watchers).
func (e *Engine) finish(rev uint64) {
	if e.gate.end(rev) {
		select {
		case e.drainWake <- struct{}{}:
		default:
		}
		e.notifyApplied()
	}
}

// appliedFloor is the highest revision R such that every revision <= R
// is installed: the gate floor in internal mode, the external floor in
// replicated-log mode.
func (e *Engine) appliedFloor() uint64 {
	if e.external {
		return e.extFloor.Load()
	}
	return e.gate.floorNow()
}

// WaitApplied returns a channel that closes once the applied floor
// reaches rev (already closed when it has), plus a cancel that
// deregisters the waiter — a caller that gives up (deadline, engine
// swapped by a snapshot restore) must cancel or its entry lingers on
// the waiter list until the floor eventually passes rev. It is the
// event-driven twin of AdvanceFloor: a read-index read waits on it for
// the local state machine to catch up to the leader's confirmed index
// instead of polling the floor. The channel never closes if the engine
// stops applying; callers bound the wait and re-fetch the engine.
func (e *Engine) WaitApplied(rev uint64) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	e.waitMu.Lock()
	// Publish hasWaiters BEFORE the floor check: a floor raise that is
	// concurrent with registration then either observes it (and takes
	// waitMu to notify, serializing after this append) or ordered its
	// raise before our check (and the check sees the new floor). Checking
	// first would let a raise slip between the check and the store,
	// skipping notifyApplied's fast path with the waiter unregistered —
	// a wakeup lost forever.
	e.hasWaiters.Store(true)
	if e.appliedFloor() >= rev {
		if len(e.waiters) == 0 {
			e.hasWaiters.Store(false)
		}
		e.waitMu.Unlock()
		close(ch)
		return ch, func() {}
	}
	e.waiters = append(e.waiters, floorWaiter{rev: rev, ch: ch})
	e.waitMu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.waitMu.Lock()
			for i, w := range e.waiters {
				if w.ch == ch {
					e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
					break
				}
			}
			if len(e.waiters) == 0 {
				e.hasWaiters.Store(false)
			}
			e.waitMu.Unlock()
		})
	}
	return ch, cancel
}

// notifyApplied releases WaitApplied registrations the floor has
// reached. Floor-raise paths call it after raiseMax; the atomic check
// keeps the no-waiter case lock-free.
func (e *Engine) notifyApplied() {
	if !e.hasWaiters.Load() {
		return
	}
	e.waitMu.Lock()
	floor := e.appliedFloor()
	keep := e.waiters[:0]
	for _, w := range e.waiters {
		if w.rev <= floor {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	e.waiters = keep
	if len(keep) == 0 {
		e.hasWaiters.Store(false)
	}
	e.waitMu.Unlock()
}

// Put installs value under key at a fresh revision.
//
// Revisions are assigned while holding the shard lock (here and in
// Update/Commit): lock order and revision order then agree within a
// shard, so every key's version chain and every shard's apply log stay
// revision-ascending. Assigning before locking would let two writers to
// one key install out of order and corrupt the chain.
func (e *Engine) Put(key string, value any) (uint64, error) {
	if err := e.writableInternal(); err != nil {
		return 0, err
	}
	sh := e.shardFor(key)
	sh.mu.Lock()
	rev := e.gate.begin()
	e.install(sh, key, version{rev: rev, val: value})
	sh.log = append(sh.log, Event{Type: EventPut, Key: key, Value: value, Rev: rev})
	sh.mu.Unlock()
	e.finish(rev)
	return rev, nil
}

// Insert installs value only if the key has no live value.
func (e *Engine) Insert(key string, value any) (uint64, error) {
	rev, _, err := e.Update(key, func(_ any, exists bool) (any, Action, error) {
		if exists {
			return nil, ActSkip, ErrExists
		}
		return value, ActWrite, nil
	})
	return rev, err
}

// Delete writes a tombstone for key. It reports whether a live value was
// removed; deleting an absent key is not an error.
func (e *Engine) Delete(key string) (uint64, bool, error) {
	return e.DeleteIf(key, nil)
}

// DeleteIf deletes key only when pred accepts the current value (nil
// pred always accepts). Returns whether the delete happened.
func (e *Engine) DeleteIf(key string, pred func(cur any) bool) (uint64, bool, error) {
	rev, wrote, err := e.Update(key, func(cur any, exists bool) (any, Action, error) {
		if !exists || (pred != nil && !pred(cur)) {
			return nil, ActSkip, nil
		}
		return nil, ActDelete, nil
	})
	return rev, wrote, err
}

// Update runs fn for key under its shard's write lock — the per-key
// atomic read-modify-write primitive. fn sees the current live value
// (nil, false when absent) and decides the action. The value handed to
// fn aliases stored state: callers must copy before mutating. Returns
// the commit revision and whether a version was written; fn's error
// aborts with nothing written.
func (e *Engine) Update(key string, fn func(cur any, exists bool) (any, Action, error)) (uint64, bool, error) {
	if err := e.writableInternal(); err != nil {
		return 0, false, err
	}
	sh := e.shardFor(key)
	var rev uint64
	var wrote bool
	sh.mu.Lock()
	var cur any
	var exists bool
	if h := sh.keys[key]; h != nil {
		cur, _, exists = h.latest()
	}
	nv, act, err := fn(cur, exists)
	if err == nil {
		// The revision is allocated only when a version is actually
		// written, after fn returns — a skipped or aborted update never
		// holds a pending revision, so it cannot stall the floor.
		switch act {
		case ActWrite:
			rev = e.gate.begin()
			e.install(sh, key, version{rev: rev, val: nv})
			sh.log = append(sh.log, Event{Type: EventPut, Key: key, Value: nv, Rev: rev})
			wrote = true
		case ActDelete:
			if exists {
				rev = e.gate.begin()
				e.install(sh, key, version{rev: rev, tomb: true})
				sh.log = append(sh.log, Event{Type: EventDelete, Key: key, Rev: rev})
				wrote = true
			}
		}
	}
	sh.mu.Unlock()
	if wrote {
		e.finish(rev)
	}
	if err != nil {
		return 0, false, err
	}
	if !wrote {
		return 0, false, nil
	}
	return rev, true, nil
}

// Commit applies ops atomically across shards at one revision: the
// involved shards are locked in index order, so a snapshot reader sees
// all of the commit or none of it.
func (e *Engine) Commit(ops []Op) (uint64, error) {
	if err := e.writableInternal(); err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return 0, nil
	}
	// Lock the involved shards in index order (deadlock-free).
	involved := make(map[*shard]bool, len(ops))
	for _, op := range ops {
		involved[e.shardFor(op.Key)] = true
	}
	locked := make([]*shard, 0, len(involved))
	for _, sh := range e.shards {
		if involved[sh] {
			locked = append(locked, sh)
		}
	}
	for _, sh := range locked {
		sh.mu.Lock() //lint:allow lockdiscipline every locked shard is released below in reverse index order via locked[i].mu.Unlock()
	}
	rev := e.gate.begin()
	for _, op := range ops {
		sh := e.shardFor(op.Key)
		switch op.Kind {
		case OpPut:
			e.install(sh, op.Key, version{rev: rev, val: op.Value})
			sh.log = append(sh.log, Event{Type: EventPut, Key: op.Key, Value: op.Value, Rev: rev})
		case OpDelete:
			var exists bool
			if h := sh.keys[op.Key]; h != nil {
				_, _, exists = h.latest()
			}
			if exists {
				e.install(sh, op.Key, version{rev: rev, tomb: true})
				sh.log = append(sh.log, Event{Type: EventDelete, Key: op.Key, Rev: rev})
			}
		}
	}
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].mu.Unlock()
	}
	e.finish(rev)
	return rev, nil
}

// Get returns key's latest committed value. Single-key reads are
// linearizable: installed versions are durable before their writer is
// acknowledged, and there are no aborts.
func (e *Engine) Get(key string) (any, uint64, bool) {
	sh := e.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if h := sh.keys[key]; h != nil {
		return h.latest()
	}
	return nil, 0, false
}

// GetAt returns the live value visible for key at rev — the point-read
// companion of ScanAt, used to evaluate multi-key guards against one
// consistent snapshot revision. It fails with ErrCompacted when rev
// predates the compaction floor.
func (e *Engine) GetAt(key string, rev uint64) (any, uint64, bool, error) {
	if rev < e.compacted.Load() {
		return nil, 0, false, fmt.Errorf("%w: rev %d < compaction floor %d", ErrCompacted, rev, e.compacted.Load())
	}
	sh := e.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if h := sh.keys[key]; h != nil {
		v, vr, ok := h.at(rev)
		return v, vr, ok, nil
	}
	return nil, 0, false, nil
}

// Snapshot returns a revision safe for consistent multi-key reads: every
// write acknowledged before the call is visible at it. It waits (without
// blocking writers) for the floor to cover completed revisions.
func (e *Engine) Snapshot() uint64 {
	if e.external {
		return e.extFloor.Load()
	}
	target := e.gate.maxDone.Load()
	if in := e.instr.Load(); in != nil {
		// Floor lag: how far visibility trails the newest retired write
		// at the moment a snapshot is requested. The floor may already
		// have passed the target snapshot taken above; clamp at zero.
		lag := float64(0)
		if floor := e.gate.floorNow(); target > floor {
			lag = float64(target - floor)
		}
		in.reg.SetGauge("store_floor_lag", lag, in.name)
	}
	e.gate.waitFloor(target)
	return e.gate.floorNow()
}

// ScanAt appends the live keys under prefix as of rev to dst, sorted by
// key, and returns the extended slice: a caller that scans often hands in
// the same buffer, truncated, every time. Only brief per-shard read locks
// are held: scans never block writers.
func (e *Engine) ScanAt(dst []KV, prefix string, rev uint64) ([]KV, error) {
	if rev < e.compacted.Load() {
		return dst, fmt.Errorf("%w: rev %d < compaction floor %d", ErrCompacted, rev, e.compacted.Load())
	}
	out := dst
	for _, sh := range e.shards {
		sh.mu.RLock()
		for k, h := range sh.keys {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			if v, vr, ok := h.at(rev); ok {
				out = append(out, KV{Key: k, Value: v, Rev: vr})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out[len(dst):], byKey)
	return out, nil
}

func byKey(a, b KV) int { return strings.Compare(a.Key, b.Key) }

// Scan is ScanAt at a fresh Snapshot revision.
func (e *Engine) Scan(prefix string) ([]KV, uint64, error) {
	rev := e.Snapshot()
	kvs, err := e.ScanAt(nil, prefix, rev)
	return kvs, rev, err
}

// ScanLatest returns each live key under prefix at its newest installed
// version, sorted by key. Unlike Scan it is not a point-in-time
// snapshot; it is the read-your-writes path for per-key bookkeeping
// (unique-index checks) and the deterministic range read in ExternalRevs
// mode, where the apply loop is single-threaded.
func (e *Engine) ScanLatest(prefix string) []KV {
	var out []KV
	for _, sh := range e.shards {
		sh.mu.RLock()
		for k, h := range sh.keys {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			if v, vr, ok := h.latest(); ok {
				out = append(out, KV{Key: k, Value: v, Rev: vr})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, byKey)
	return out
}

// Compact discards version history below rev: each key keeps its newest
// version at or below rev (its base for reads >= rev) plus everything
// newer. Keys whose base is a tombstone with nothing newer are removed
// entirely. Reads below rev fail with ErrCompacted afterwards.
func (e *Engine) Compact(rev uint64) {
	for {
		cur := e.compacted.Load()
		if rev <= cur {
			return
		}
		if e.compacted.CompareAndSwap(cur, rev) {
			break
		}
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		for k, h := range sh.keys {
			// Find the base: newest version with rev' <= rev.
			base := -1
			for i, v := range h.versions {
				if v.rev <= rev {
					base = i
				} else {
					break
				}
			}
			if base < 0 {
				continue
			}
			if base == len(h.versions)-1 && h.versions[base].tomb {
				e.countDrops(len(h.versions))
				delete(sh.keys, k)
				continue
			}
			e.countDrops(base)
			n := copy(h.versions, h.versions[base:])
			clear(h.versions[n:]) // release the dropped values
			h.versions = h.versions[:n]
		}
		sh.mu.Unlock()
	}
}

// CompactedRev reports the current compaction floor.
func (e *Engine) CompactedRev() uint64 { return e.compacted.Load() }

// ResumeFloor is the lowest revision WatchFrom can resume from with a
// complete backfill: the highest revision dropped from version history
// by compaction, per-key chain trimming, or snapshot import.
func (e *Engine) ResumeFloor() uint64 {
	if t := e.truncated.Load(); t > e.compacted.Load() {
		return t
	}
	return e.compacted.Load()
}

// HistoryEvents reconstructs, from the bounded version history, the
// events committed in (fromRev, toRev] for keys under prefix, sorted by
// revision and, within one, by key — drainOnce's order, so a backfill is
// the same on every run. It fails with ErrCompacted when fromRev predates
// the resume floor — part of the window may already have been dropped —
// in which case the consumer must fall back to a snapshot re-list.
func (e *Engine) HistoryEvents(prefix string, fromRev, toRev uint64) ([]Event, error) {
	check := func() error {
		if f := e.ResumeFloor(); fromRev < f {
			return fmt.Errorf("%w: resume from %d predates history floor %d", ErrCompacted, fromRev, f)
		}
		return nil
	}
	if err := check(); err != nil {
		return nil, err
	}
	var out []Event
	for _, sh := range e.shards {
		sh.mu.RLock()
		for k, h := range sh.keys {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			for _, v := range h.versions {
				if v.rev <= fromRev || v.rev > toRev {
					continue
				}
				if v.tomb {
					out = append(out, Event{Type: EventDelete, Key: k, Rev: v.rev})
				} else {
					out = append(out, Event{Type: EventPut, Key: k, Value: v.val, Rev: v.rev})
				}
			}
		}
		sh.mu.RUnlock()
	}
	// A trim racing the scan may have dropped versions inside the window
	// after their shard was read; re-check so the backfill is known
	// complete, or the caller knows it is not.
	if err := check(); err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Rev, b.Rev), strings.Compare(a.Key, b.Key))
	})
	return out, nil
}

// Watch subscribes to changes of keys under prefix, delivered in strict
// revision order. Events begin after the current delivered revision.
// Only available in internal-revision mode (external callers own their
// replicated delivery and should use a Hub directly).
func (e *Engine) Watch(prefix string) (<-chan Event, func(), error) {
	if e.external {
		return nil, nil, fmt.Errorf("%w: Watch on ExternalRevs engine", ErrExternalRevs)
	}
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	// Sync the hub to the floor first so the "no replay of acknowledged
	// writes" contract holds: the delivered cursor otherwise lags the
	// floor until the asynchronous drain runs.
	e.drainOnce()
	ch, cancel := e.hub.Watch(prefix)
	return ch, cancel, nil
}

// WatchFrom subscribes to changes of keys under prefix starting after
// startRev: every event with revision > startRev is delivered exactly
// once, in strict revision order — events committed before the call are
// backfilled from version history, then the stream continues live. When
// startRev predates the resume floor (compaction or chain trimming
// dropped part of the window) it fails with ErrCompacted and the
// consumer must re-list and watch from the present instead.
func (e *Engine) WatchFrom(prefix string, startRev uint64) (<-chan Event, func(), error) {
	if e.external {
		return nil, nil, fmt.Errorf("%w: WatchFrom on ExternalRevs engine", ErrExternalRevs)
	}
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	// Sync the hub to the current floor first: its delivered cursor
	// otherwise lags acknowledged writes (the drain is asynchronous), and
	// the backfill/live boundary must sit at a known revision.
	e.drainOnce()
	ch, cancel, cursor := e.hub.WatchCursor(prefix)
	if startRev == cursor {
		return ch, cancel, nil
	}
	var backfill []Event
	if startRev < cursor {
		var err error
		backfill, err = e.HistoryEvents(prefix, startRev, cursor)
		if err != nil {
			cancel()
			return nil, nil, err
		}
	}
	// The splice's floor filter suppresses live events at or below
	// startRev when resuming from the future (startRev > cursor); in the
	// backfill case live events are all > cursor already.
	after := cursor
	if startRev > cursor {
		after = startRev
	}
	out, stopSplice := SpliceEvents(backfill, ch, after, e.stop)
	var once sync.Once
	return out, func() { once.Do(func() { stopSplice(); cancel() }) }, nil
}

// drainLoop merges per-shard apply logs into revision order and hands
// them to the hub whenever the floor advances.
func (e *Engine) drainLoop() {
	for {
		select {
		case <-e.stop:
			return
		case <-e.drainWake:
			e.drainOnce()
		}
	}
}

// drainOnce delivers every undelivered event at or below the floor. The
// per-shard logs may hold events out of revision order (writers append
// in lock-acquisition order); the merge sorts them into the single
// serial history watchers observe.
func (e *Engine) drainOnce() {
	floor := e.gate.floorNow()
	e.hub.Sync(func(delivered uint64) (uint64, []Event) {
		if floor <= delivered {
			return delivered, nil
		}
		var batch []Event
		for _, sh := range e.shards {
			sh.mu.Lock()
			keep := sh.log[:0]
			for _, ev := range sh.log {
				if ev.Rev <= floor {
					batch = append(batch, ev)
				} else {
					keep = append(keep, ev)
				}
			}
			sh.log = keep
			sh.mu.Unlock()
		}
		// Canonical (revision, key) order: events of one multi-key
		// commit (a txn, a batch of deletes) reach watchers in the same
		// sequence on every run and every shard layout — sort.Slice is
		// unstable, so ordering by Rev alone would let same-revision
		// events land in shard-traversal order.
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].Rev != batch[j].Rev {
				return batch[i].Rev < batch[j].Rev
			}
			return batch[i].Key < batch[j].Key
		})
		return floor, batch
	})
}

// ApplyAt installs ops at the caller-supplied revision (ExternalRevs
// mode) and appends the resulting events to dst for the caller's own
// delivery layer. The caller must apply revisions in increasing order
// from a single goroutine — a replicated log's apply loop — which can
// hand in the same buffer, truncated, every time.
func (e *Engine) ApplyAt(dst []Event, rev uint64, ops []Op) ([]Event, error) {
	if !e.external {
		return dst, fmt.Errorf("%w: ApplyAt on internal-revision engine", ErrExternalRevs)
	}
	events := dst
	for _, op := range ops {
		sh := e.shardFor(op.Key)
		sh.mu.Lock()
		switch op.Kind {
		case OpPut:
			e.install(sh, op.Key, version{rev: rev, val: op.Value})
			events = append(events, Event{Type: EventPut, Key: op.Key, Value: op.Value, Rev: rev})
		case OpDelete:
			var exists bool
			if h := sh.keys[op.Key]; h != nil {
				_, _, exists = h.latest()
			}
			if exists {
				e.install(sh, op.Key, version{rev: rev, tomb: true})
				events = append(events, Event{Type: EventDelete, Key: op.Key, Rev: rev})
			}
		}
		sh.mu.Unlock()
	}
	raiseMax(&e.extFloor, rev)
	e.notifyApplied()
	return events, nil
}

// AdvanceFloor raises the applied floor to rev without mutating state.
// The external apply loop calls it for entries that carry no writes
// (reads, no-ops), so the floor tracks every applied index — consumers
// comparing the floor against a delivery cursor (WatchFrom backfill)
// would otherwise see a replica perpetually "behind" after a read.
func (e *Engine) AdvanceFloor(rev uint64) error {
	if !e.external {
		return fmt.Errorf("%w: AdvanceFloor on internal-revision engine", ErrExternalRevs)
	}
	raiseMax(&e.extFloor, rev)
	e.notifyApplied()
	return nil
}

// Export returns every live key at its latest version, sorted by key —
// the state-machine image for replicated-log snapshots.
func (e *Engine) Export() []KV {
	return e.ScanLatest("")
}

// Import replaces the engine's contents with kvs, installing each at its
// recorded revision, and advances the floor to the highest of them (or
// floorAtLeast if greater). Used to restore from a snapshot image. Only
// ExternalRevs engines can import: an internal engine's gate assigns
// dense revisions from 1 and cannot adopt arbitrary ones.
func (e *Engine) Import(kvs []KV, floorAtLeast uint64) error {
	if !e.external {
		return fmt.Errorf("%w: Import on internal-revision engine", ErrExternalRevs)
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.keys = make(map[string]*history)
		sh.log = nil
		sh.mu.Unlock()
	}
	floor := floorAtLeast
	for _, kv := range kvs {
		sh := e.shardFor(kv.Key)
		sh.mu.Lock()
		e.install(sh, kv.Key, version{rev: kv.Rev, val: kv.Value})
		sh.mu.Unlock()
		if kv.Rev > floor {
			floor = kv.Rev
		}
	}
	if floor > e.extFloor.Load() {
		e.extFloor.Store(floor)
	}
	// The image carries only each key's latest version: everything below
	// the restored floor is unavailable for backfill, so resumers older
	// than it must re-list.
	raiseMax(&e.truncated, floor)
	e.notifyApplied()
	return nil
}

// gate is the ordering layer: it assigns dense revisions and tracks the
// floor — the highest revision R with every revision <= R installed —
// via a fixed ring of per-revision state slots, so writers to different
// shards coordinate only through a few atomic words plus a short
// advance-critical-section instead of a store-wide mutex.
type gate struct {
	next    atomic.Uint64
	floor   atomic.Uint64
	maxDone atomic.Uint64 // highest retired revision (visibility target)

	slots     []atomic.Uint32 // 0 free, 1 pending, 2 done
	mask      uint64
	advanceMu sync.Mutex
}

// gateRing is the in-flight revision window. Writers beyond it spin in
// begin until the floor catches up — in practice unreachable (it would
// need 16k concurrent in-flight writes).
const gateRing = 1 << 14

func newGate() *gate {
	return &gate{slots: make([]atomic.Uint32, gateRing), mask: gateRing - 1}
}

// begin assigns the next revision and marks it pending.
func (g *gate) begin() uint64 {
	r := g.next.Add(1)
	s := &g.slots[r&g.mask]
	for !s.CompareAndSwap(0, 1) {
		runtime.Gosched() // ring wrap: wait for rev r-gateRing to retire
	}
	return r
}

// end retires rev and advances the floor over the contiguous done
// prefix. Reports whether the floor moved.
func (g *gate) end(rev uint64) bool {
	g.slots[rev&g.mask].Store(2)
	for {
		m := g.maxDone.Load()
		if rev <= m || g.maxDone.CompareAndSwap(m, rev) {
			break
		}
	}
	g.advanceMu.Lock()
	f := g.floor.Load()
	start := f
	for {
		s := &g.slots[(f+1)&g.mask]
		if s.Load() != 2 {
			break
		}
		s.Store(0)
		f++
	}
	if f != start {
		g.floor.Store(f)
	}
	g.advanceMu.Unlock()
	return f != start
}

// floorNow loads the floor.
func (g *gate) floorNow() uint64 { return g.floor.Load() }

// waitFloor spins until the floor reaches target. Progress is guaranteed
// because every begun revision is retired on all paths.
func (g *gate) waitFloor(target uint64) {
	for g.floor.Load() < target {
		runtime.Gosched()
	}
}
