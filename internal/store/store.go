// Package store is the platform's metadata-plane engine: a multi-version
// (MVCC) key-value store that the mongo and etcd substrates are thin
// facades over.
//
//   - Keys live in one ordered index: a map from each key to its version
//     chain, and beside it the same chains sorted by key. A point read is a
//     map lookup; a prefix scan is a binary-search seek plus the keys of the
//     prefix, which come out in key order.
//   - One RWMutex guards the index. Writers assign revisions under the
//     write lock, so the applied floor (the highest revision R such that
//     every revision <= R is installed) is one atomic word, and a snapshot
//     read at it sees every write acknowledged before it began.
//   - In internal mode a write hands its events to the watch hub before it
//     releases the lock, so watchers observe one serial history, each
//     revision's events in key order.
//   - Version chains are bounded (DefaultHistoryLimit versions per key);
//     a read of history below what the chains retain fails with
//     ErrCompacted, like a read below etcd's compaction.
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
	"math"
	"slices"
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
	// ErrCompacted indicates the requested revision predates the
	// retained history.
	ErrCompacted = errors.New("store: revision compacted")
	// ErrExternalRevs indicates an internal-revision operation was called
	// on an engine in ExternalRevs mode (or vice versa).
	ErrExternalRevs = errors.New("store: wrong revision mode")
)

// DefaultHistoryLimit bounds the per-key version chain; older versions
// are trimmed as new ones are installed.
const DefaultHistoryLimit = 32

// latestRev reads a key's newest installed version.
const latestRev = math.MaxUint64

// EventType distinguishes watch events.
type EventType int

// Watch event kinds.
const (
	EventPut EventType = iota + 1
	EventDelete
)

// EventOf is one change in the store's serial history.
type EventOf[V any] struct {
	Type  EventType
	Key   string
	Value V
	Rev   uint64
}

// EventKey implements Keyed for the watch hub.
func (e EventOf[V]) EventKey() string { return e.Key }

// EventRev implements Keyed for the watch hub.
func (e EventOf[V]) EventRev() uint64 { return e.Rev }

// KVOf is a key with its value and last-modification revision.
type KVOf[V any] struct {
	Key   string
	Value V
	Rev   uint64
}

// OpKind enumerates mutations accepted by Commit/ApplyAt.
type OpKind int

// Mutation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
)

// OpOf is one mutation in a multi-key commit.
type OpOf[V any] struct {
	Kind  OpKind
	Key   string
	Value V
}

// The untyped engine and its types hold values as interfaces. mongo keeps
// its documents in one (a map is pointer-shaped, so holding it allocates
// nothing); etcd's replicas keep strings in an EngineOf[string], which
// holds them without the box an interface would cost per value.
type (
	Engine = EngineOf[any]
	Op     = OpOf[any]
)

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

// Config parameterizes an Engine. The zero value is an internal-revision
// engine.
type Config struct {
	// ExternalRevs switches the engine to replicated-log mode: the
	// caller supplies monotone revisions via ApplyAt, and internal-mode
	// operations (Put, Update, Commit, Watch) are rejected.
	ExternalRevs bool
}

// version is one entry in a key's MVCC chain.
type version[V any] struct {
	rev  uint64
	val  V
	tomb bool
}

// history is a key's version chain, ascending by revision. Its first
// versions live in inline, so a new key and its first rewrite cost one
// allocation, the history itself; the chain moves to the heap only when
// it outgrows inline.
type history[V any] struct {
	key      string
	versions []version[V]
	inline   [2]version[V]
}

func newHistory[V any](key string) *history[V] {
	h := &history[V]{key: key}
	h.versions = h.inline[:0]
	return h
}

// push appends v to the chain.
func (h *history[V]) push(v version[V]) {
	moves := len(h.versions) == cap(h.versions)
	h.versions = append(h.versions, v)
	if moves {
		clear(h.inline[:]) // nothing points into it now: keep no values alive
	}
}

// at returns the live value visible at rev (latestRev: the newest).
func (h *history[V]) at(rev uint64) (val V, vrev uint64, ok bool) {
	for i := len(h.versions) - 1; i >= 0; i-- {
		v := h.versions[i]
		if v.rev > rev {
			continue
		}
		if v.tomb {
			return val, 0, false
		}
		return v.val, v.rev, true
	}
	return val, 0, false
}

// EngineOf is the MVCC store of values of type V.
type EngineOf[V any] struct {
	// mu guards the index and everything below it up to external. A
	// writer holds it while it assigns a revision, installs it and, in
	// internal mode, publishes its events.
	mu     sync.RWMutex
	keys   map[string]*history[V]
	sorted []*history[V] // the histories of keys, ascending by key
	// truncated is the highest revision dropped from a version chain by
	// per-key history trimming or snapshot import: it bounds how far back
	// HistoryEvents can reach.
	truncated uint64
	events    []EventOf[V] // internal mode: the commit's events, reused
	mtr       *metrics.Registry
	mtrName   string

	external bool
	hub      *Hub[EventOf[V]] // internal mode: watch dispatch
	// applied is the highest installed revision: written only under mu
	// (internal mode assigns the next revision from it), read without it.
	applied atomic.Uint64
	closed  atomic.Bool

	// Applied-floor waiters (WaitApplied). hasWaiters lets the floor-raise
	// hot paths skip the lock when nobody is waiting.
	waitMu     sync.Mutex
	waiters    []floorWaiter
	hasWaiters atomic.Bool
}

// floorWaiter is one WaitApplied registration: ch closes when the
// applied floor reaches rev.
type floorWaiter struct {
	rev uint64
	ch  chan struct{}
}

// seek returns the position in sorted of the first key >= key. Callers
// hold e.mu.
func (e *EngineOf[V]) seek(key string) int {
	i, _ := slices.BinarySearchFunc(e.sorted, key, func(h *history[V], k string) int {
		return strings.Compare(h.key, k)
	})
	return i
}

// under returns the histories of the keys under prefix, in key order.
// Callers hold e.mu.
func (e *EngineOf[V]) under(prefix string) []*history[V] {
	i := e.seek(prefix)
	j := i
	for j < len(e.sorted) && strings.HasPrefix(e.sorted[j].key, prefix) {
		j++
	}
	return e.sorted[i:j]
}

// install appends a version to key's chain, indexing the key if it is
// new, bounding the chain's length and accounting any dropped history
// against the truncation floor. Callers hold e.mu for writing.
func (e *EngineOf[V]) install(key string, v version[V]) {
	h := e.keys[key]
	if h == nil {
		h = newHistory[V](key)
		e.keys[key] = h
		e.sorted = slices.Insert(e.sorted, e.seek(key), h)
	}
	if n := len(h.versions); n > 0 && h.versions[n-1].rev == v.rev {
		// Same-revision rewrite (multi-op commit touching one key twice):
		// the later op wins within the revision.
		h.versions[n-1] = v
		return
	}
	h.push(v)
	drop := len(h.versions) - DefaultHistoryLimit
	if drop > 0 {
		e.truncated = max(e.truncated, h.versions[drop-1].rev)
		h.versions = h.versions[drop:]
	}
	if e.mtr != nil {
		e.mtr.Inc("store_commits", e.mtrName)
		if drop > 0 {
			e.mtr.Add("store_history_drops", float64(drop), e.mtrName)
		}
	}
}

// getLocked returns the live value of key visible at rev. Callers hold
// e.mu.
func (e *EngineOf[V]) getLocked(key string, rev uint64) (val V, vrev uint64, ok bool) {
	if h := e.keys[key]; h != nil {
		return h.at(rev)
	}
	return val, 0, false
}

// applyLocked installs ops at rev and appends their events to dst: a put
// always, a delete only when it removes a live value. Callers hold e.mu
// for writing.
func (e *EngineOf[V]) applyLocked(dst []EventOf[V], rev uint64, ops []OpOf[V]) []EventOf[V] {
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			e.install(op.Key, version[V]{rev: rev, val: op.Value})
			dst = append(dst, EventOf[V]{Type: EventPut, Key: op.Key, Value: op.Value, Rev: rev})
		case OpDelete:
			if _, _, ok := e.getLocked(op.Key, latestRev); ok {
				e.install(op.Key, version[V]{rev: rev, tomb: true})
				dst = append(dst, EventOf[V]{Type: EventDelete, Key: op.Key, Rev: rev})
			}
		}
	}
	return dst
}

// commitLocked installs ops at the next revision, makes it the applied
// floor and hands its events to the hub, sorted by key so one commit fans
// out the same way on every run. Publishing before the caller releases
// e.mu keeps the hub's revisions in order. Callers hold e.mu for writing.
func (e *EngineOf[V]) commitLocked(ops ...OpOf[V]) uint64 {
	rev := e.applied.Load() + 1
	e.events = e.applyLocked(e.events[:0], rev, ops)
	slices.SortStableFunc(e.events, func(a, b EventOf[V]) int { return strings.Compare(a.Key, b.Key) })
	e.raiseLocked(rev)
	e.hub.Publish(rev, e.events)
	clear(e.events) // the hub copied them: keep no values alive
	return rev
}

// NewEngine builds an untyped engine from cfg.
func NewEngine(cfg Config) *Engine { return NewEngineOf[any](cfg) }

// NewEngineOf builds an engine of V values from cfg.
func NewEngineOf[V any](cfg Config) *EngineOf[V] {
	e := &EngineOf[V]{keys: make(map[string]*history[V]), external: cfg.ExternalRevs}
	if !e.external {
		e.hub = NewHub[EventOf[V]]()
	}
	return e
}

// Close shuts the engine down. Watchers stop receiving events; further
// writes fail with ErrClosed.
func (e *EngineOf[V]) Close() {
	if e.closed.Swap(true) {
		return
	}
	if !e.external {
		e.hub.Close()
	}
}

// Instrument publishes the engine's operational metrics into reg under
// the given name label: commit counts, history-drop counts, and
// (internal mode) the watch hub's queue depth. Call once, before the
// engine starts serving traffic.
func (e *EngineOf[V]) Instrument(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	e.mu.Lock()
	e.mtr, e.mtrName = reg, name
	e.mu.Unlock()
	if e.hub != nil {
		e.hub.Instrument(reg, name)
	}
}

func (e *EngineOf[V]) writableInternal() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.external {
		return fmt.Errorf("%w: internal-revision op on ExternalRevs engine", ErrExternalRevs)
	}
	return nil
}

// raiseLocked lifts the applied floor to rev, never lowering it. Every
// writer of applied holds e.mu for writing, so a load and a store
// suffice; the caller runs notifyApplied once it has unlocked.
func (e *EngineOf[V]) raiseLocked(rev uint64) {
	e.applied.Store(max(e.applied.Load(), rev))
}

// WaitApplied returns a channel that closes once the applied floor
// reaches rev (already closed when it has), plus a cancel that
// deregisters the waiter — a caller that gives up (deadline, engine
// swapped by a snapshot restore) must cancel or its entry lingers on
// the waiter list until the floor eventually passes rev. It is the
// event-driven twin of AdvanceFloor: a read-index read waits on it for
// the local state machine to catch up to the leader's confirmed index
// instead of polling the floor. The channel never closes if the engine
// stops applying, so callers bound the wait.
func (e *EngineOf[V]) WaitApplied(rev uint64) (<-chan struct{}, func()) {
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
	if e.applied.Load() >= rev {
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
// reached. Floor-raise paths call it after the raise; the atomic check
// keeps the no-waiter case lock-free.
func (e *EngineOf[V]) notifyApplied() {
	if !e.hasWaiters.Load() {
		return
	}
	e.waitMu.Lock()
	floor := e.applied.Load()
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
func (e *EngineOf[V]) Put(key string, value V) (uint64, error) {
	return e.Commit([]OpOf[V]{{Kind: OpPut, Key: key, Value: value}})
}

// Insert installs value only if the key has no live value.
func (e *EngineOf[V]) Insert(key string, value V) (uint64, error) {
	rev, _, err := e.Update(key, func(_ V, exists bool) (V, Action, error) {
		if exists {
			var none V
			return none, ActSkip, ErrExists
		}
		return value, ActWrite, nil
	})
	return rev, err
}

// Update runs fn for key under the engine's write lock — the per-key
// atomic read-modify-write primitive. fn sees the current live value
// (nil, false when absent) and decides the action. fn must not call back
// into the engine: the lock is not reentrant. The value handed to fn
// aliases stored state: callers must copy before mutating. Returns the
// commit revision and whether a version was written; fn's error aborts
// with nothing written. A revision is assigned only when a version is
// written.
func (e *EngineOf[V]) Update(key string, fn func(cur V, exists bool) (V, Action, error)) (uint64, bool, error) {
	if err := e.writableInternal(); err != nil {
		return 0, false, err
	}
	var rev uint64
	e.mu.Lock()
	cur, _, exists := e.getLocked(key, latestRev)
	nv, act, err := fn(cur, exists)
	switch {
	case err != nil:
	case act == ActWrite:
		rev = e.commitLocked(OpOf[V]{Kind: OpPut, Key: key, Value: nv})
	case act == ActDelete && exists:
		rev = e.commitLocked(OpOf[V]{Kind: OpDelete, Key: key})
	}
	e.mu.Unlock()
	if rev == 0 {
		return 0, false, err
	}
	e.notifyApplied()
	return rev, true, nil
}

// Commit applies ops atomically at one revision: a snapshot reader sees
// all of the commit or none of it.
func (e *EngineOf[V]) Commit(ops []OpOf[V]) (uint64, error) {
	if err := e.writableInternal(); err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return 0, nil
	}
	e.mu.Lock()
	rev := e.commitLocked(ops...)
	e.mu.Unlock()
	e.notifyApplied()
	return rev, nil
}

// Get returns key's latest committed value. Single-key reads are
// linearizable: installed versions are durable before their writer is
// acknowledged, and there are no aborts.
func (e *EngineOf[V]) Get(key string) (val V, rev uint64, ok bool) {
	return e.GetAt(key, latestRev)
}

// GetAt returns the live value visible for key at rev — the point-read
// companion of ScanAt, used to evaluate multi-key guards against one
// consistent snapshot revision.
func (e *EngineOf[V]) GetAt(key string, rev uint64) (val V, vrev uint64, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.getLocked(key, rev)
}

// Snapshot returns a revision safe for consistent multi-key reads: every
// write acknowledged before the call is visible at it.
func (e *EngineOf[V]) Snapshot() uint64 { return e.applied.Load() }

// ScanAt appends the live keys under prefix as of rev to dst, sorted by
// key, and returns the extended slice: a caller that scans often hands in
// the same buffer, truncated, every time.
func (e *EngineOf[V]) ScanAt(dst []KVOf[V], prefix string, rev uint64) []KVOf[V] {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, h := range e.under(prefix) {
		if v, vr, ok := h.at(rev); ok {
			dst = append(dst, KVOf[V]{Key: h.key, Value: v, Rev: vr})
		}
	}
	return dst
}

// Scan is ScanAt at a fresh Snapshot revision. The error is always nil.
func (e *EngineOf[V]) Scan(prefix string) ([]KVOf[V], uint64, error) {
	rev := e.Snapshot()
	return e.ScanAt(nil, prefix, rev), rev, nil
}

// ScanLatest returns each live key under prefix at its newest installed
// version, sorted by key. Unlike Scan it is not a point-in-time
// snapshot; it is the read-your-writes path for per-key bookkeeping
// (unique-index checks) and the deterministic range read in ExternalRevs
// mode, where the apply loop is single-threaded.
func (e *EngineOf[V]) ScanLatest(prefix string) []KVOf[V] {
	return e.ScanAt(nil, prefix, latestRev)
}

// ResumeFloor is the lowest revision HistoryEvents can start from with a
// complete answer: the highest revision dropped from version history by
// per-key chain trimming or snapshot import.
func (e *EngineOf[V]) ResumeFloor() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.truncated
}

// HistoryEvents reconstructs, from the bounded version history, the
// events committed in (fromRev, toRev] for keys under prefix, sorted by
// revision and, within one, by key — the order the hub delivers them in,
// so a backfill is the same on every run. It fails with ErrCompacted when
// fromRev predates the resume floor — part of the window may already have
// been dropped — in which case the consumer must fall back to a snapshot
// re-list.
func (e *EngineOf[V]) HistoryEvents(prefix string, fromRev, toRev uint64) ([]EventOf[V], error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if fromRev < e.truncated {
		return nil, fmt.Errorf("%w: resume from %d predates history floor %d", ErrCompacted, fromRev, e.truncated)
	}
	var out []EventOf[V]
	for _, h := range e.under(prefix) {
		for _, v := range h.versions {
			if v.rev <= fromRev || v.rev > toRev {
				continue
			}
			ev := EventOf[V]{Type: EventPut, Key: h.key, Value: v.val, Rev: v.rev}
			if v.tomb {
				ev.Type = EventDelete
			}
			out = append(out, ev)
		}
	}
	// The keys were walked in order, so sorting by revision alone, stably,
	// leaves each revision's events in key order.
	slices.SortStableFunc(out, func(a, b EventOf[V]) int { return cmp.Compare(a.Rev, b.Rev) })
	return out, nil
}

// Watch subscribes to changes of keys under prefix, delivered in strict
// revision order. Events begin after the current delivered revision.
// Only available in internal-revision mode (external callers own their
// replicated delivery and should use a Hub directly).
func (e *EngineOf[V]) Watch(prefix string) (<-chan EventOf[V], func(), error) {
	if e.external {
		return nil, nil, fmt.Errorf("%w: Watch on ExternalRevs engine", ErrExternalRevs)
	}
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	ch, cancel := e.hub.Watch(prefix)
	return ch, cancel, nil
}

// ApplyAt installs ops at the caller-supplied revision (ExternalRevs
// mode) and appends the resulting events to dst for the caller's own
// delivery layer. The caller must apply revisions in increasing order
// from a single goroutine — a replicated log's apply loop — which can
// hand in the same buffer, truncated, every time.
func (e *EngineOf[V]) ApplyAt(dst []EventOf[V], rev uint64, ops []OpOf[V]) ([]EventOf[V], error) {
	if !e.external {
		return dst, fmt.Errorf("%w: ApplyAt on internal-revision engine", ErrExternalRevs)
	}
	e.mu.Lock()
	dst = e.applyLocked(dst, rev, ops)
	e.raiseLocked(rev)
	e.mu.Unlock()
	e.notifyApplied()
	return dst, nil
}

// AdvanceFloor raises the applied floor to rev without mutating state.
// The external apply loop calls it for entries that carry no writes
// (reads, no-ops), so the floor tracks every applied index — consumers
// comparing the floor against a delivery cursor (WatchFrom backfill)
// would otherwise see a replica perpetually "behind" after a read.
func (e *EngineOf[V]) AdvanceFloor(rev uint64) error {
	if !e.external {
		return fmt.Errorf("%w: AdvanceFloor on internal-revision engine", ErrExternalRevs)
	}
	e.mu.Lock()
	e.raiseLocked(rev)
	e.mu.Unlock()
	e.notifyApplied()
	return nil
}

// Export returns every live key at its latest version, sorted by key —
// the state-machine image for replicated-log snapshots.
func (e *EngineOf[V]) Export() []KVOf[V] {
	return e.ScanLatest("")
}

// Import replaces the engine's contents with kvs, installing each at its
// recorded revision, and advances the floor to the highest of them (or
// floorAtLeast if greater). Used to restore from a snapshot image. Only
// ExternalRevs engines can import: an internal engine assigns dense
// revisions from 1 and cannot adopt arbitrary ones.
func (e *EngineOf[V]) Import(kvs []KVOf[V], floorAtLeast uint64) error {
	if !e.external {
		return fmt.Errorf("%w: Import on internal-revision engine", ErrExternalRevs)
	}
	floor := floorAtLeast
	e.mu.Lock()
	e.keys, e.sorted = make(map[string]*history[V], len(kvs)), make([]*history[V], 0, len(kvs))
	for _, kv := range kvs {
		e.install(kv.Key, version[V]{rev: kv.Rev, val: kv.Value})
		floor = max(floor, kv.Rev)
	}
	// The image carries only each key's latest version: everything below
	// the restored floor is unavailable for backfill, so resumers older
	// than it must re-list.
	e.truncated = max(e.truncated, floor)
	e.raiseLocked(floor)
	e.mu.Unlock()
	e.notifyApplied()
	return nil
}
