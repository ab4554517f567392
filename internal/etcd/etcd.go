// Package etcd provides a replicated, linearizable key-value store built
// on the Raft implementation in internal/raft. It stands in for the 3-way
// replicated etcd cluster that DLaaS uses to coordinate the Helper
// controller and the Guardian ("we employ the ETCD key-value store to
// co-ordinate between the controller and LCM/Guardian... ETCD itself is
// replicated (3-way), and uses the Raft consensus protocol").
//
// Writes are sequenced through the Raft log, one entry per call. Reads
// never enter it: Get,
// Range and read-only Txn are served from the MVCC snapshot of the
// replica whose node vouched for the read index — the leader, via its
// check-quorum lease when live (zero messages per read) or a coalesced
// quorum heartbeat round otherwise (one round resolves every read in
// flight during it) — linearizable results with zero log entries per
// read. SerializableRange is the stale-tolerant read of the freshest live
// replica that needs no quorum. Watches observe the apply stream and
// survive the crash of any minority of nodes.
//
// Each replica's deterministic state machine (statemachine.go, with its
// codec in codec.go) is a store.EngineOf[string] in external-revision
// mode (the Raft log index is the revision) plus the exactly-once dedup
// ledger; it has no goroutine, lock or clock of its own. This file holds
// the Store and its replicas' appliers; the client front end is ops.go,
// pipeline.go (each write one log entry, proposed by its caller), reads.go
// and watch.go. Watch delivery goes through a store.Hub whose revision
// cursor dedupes the per-replica apply streams, and the request plumbing
// (request IDs, waiter completion) uses striped maps — there is no
// store-wide mutex on the request path; Store.mu guards only the replica
// table (crash, restart, close, snapshot install).
package etcd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/raft"
	"repro/internal/store"
)

// Common errors.
var (
	// ErrTimeout indicates the operation did not commit before the
	// deadline (no leader, or this client is partitioned).
	ErrTimeout = errors.New("etcd: request timed out")
	// ErrClosed indicates the store has been shut down.
	ErrClosed = errors.New("etcd: store closed")
	// ErrCompacted indicates a WatchFrom start revision predates the
	// replicas' retained MVCC history: the consumer cannot resume
	// exactly and must fall back to Range + Watch from the present. It
	// aliases store.ErrCompacted so errors.Is works across layers.
	ErrCompacted = store.ErrCompacted
)

// EventType distinguishes watch events.
type EventType int

// Watch event kinds.
const (
	EventPut EventType = iota + 1
	EventDelete
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EventPut:
		return "PUT"
	case EventDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Event is a single change notification.
type Event struct {
	Type  EventType
	Key   string
	Value string
	// Rev is the Raft log index that produced the event.
	Rev uint64
}

// EventKey implements store.Keyed for hub dispatch.
func (e Event) EventKey() string { return e.Key }

// EventRev implements store.Keyed for hub dispatch.
func (e Event) EventRev() uint64 { return e.Rev }

// KV is a key with its value and last-modification revision.
type KV struct {
	Key   string
	Value string
	Rev   uint64
}

// Cmp is a transaction guard, with the same semantics as a CAS command's
// precondition: when PrevExists the key must exist with value Prev;
// otherwise the key must be absent.
type Cmp struct {
	Key        string
	Prev       string
	PrevExists bool
}

// TxnOp is one mutation inside a transaction branch.
type TxnOp struct {
	// Type is EventPut or EventDelete.
	Type  EventType
	Key   string
	Value string
}

// defaultRequestTimeout bounds how long a client op waits for commit.
const defaultRequestTimeout = 5 * time.Second

// proposeWait is how long one proposal waits for its apply before
// re-proposing (leadership may have changed and the entry been lost).
const proposeWait = 500 * time.Millisecond

// readIndexWait bounds one leader read-index round, and the wait for the
// answering replica to apply through the index; the read path retries
// until the request deadline.
const readIndexWait = 500 * time.Millisecond

// retryPause is the backoff between read/propose retries while the
// cluster has no reachable leader.
const retryPause = 20 * time.Millisecond

// defaultCompactEvery is how many applied entries a node accumulates
// before snapshotting its state machine and compacting the Raft log.
const defaultCompactEvery = 1000

// Store is a handle to the replicated KV cluster.
type Store struct {
	clk     clock.Clock
	cluster *raft.Cluster
	timeout time.Duration

	compactEvery atomic.Int64
	closed       atomic.Bool
	stopCh       chan struct{}

	// Request numbering. reqSeq is the last ID handed out; inflight holds
	// the IDs of the calls still proposing; reqFloor is the smallest of
	// them (reqSeq+1 when none is) — the low-water mark every command
	// carries to the replicas' dedup ledgers.
	reqMu    sync.Mutex
	reqSeq   uint64
	reqFloor uint64
	inflight map[uint64]struct{}

	// Client-operation counters, split by kind: the control plane's cost
	// is read off them as Range scans per job.
	cRange, cPut, cGet, cDelete, cCAS, cTxn, cWatch opCounter

	// proposals counts entries actually submitted to the Raft log.
	proposals atomic.Uint64

	// leaderCache short-circuits the per-op leader scan; dropLeader
	// invalidates it on any leader-side failure. ids is the fixed
	// membership in id order.
	leaderCache atomic.Pointer[raft.Node]
	ids         []int

	mtr atomic.Pointer[metrics.Registry]

	waiters [waiterStripes]waiterStripe
	replies replyPool
	hub     *store.Hub[Event]

	// mu guards the replica table (cold path): each live node's state
	// machine, and the channel that stops its applier.
	mu    sync.Mutex
	sms   map[int]*stateMachine
	stops map[int]chan struct{}
}

// StoreOptions configures a Store beyond the defaults. It has no fields:
// the store runs one configuration.
type StoreOptions struct{}

// New boots an n-way replicated store on clk. The paper's deployment uses
// n = 3.
func New(n int, clk clock.Clock) *Store { return newStore(n, raft.DefaultConfig(clk)) }

// NewWithOptions is New; StoreOptions has no fields, so the error is
// always nil.
func NewWithOptions(n int, clk clock.Clock, _ StoreOptions) (*Store, error) {
	return New(n, clk), nil
}

// newStore boots the store over n raft nodes configured by cfg, whose
// Clock is the store's.
func newStore(n int, cfg raft.Config) *Store {
	s := &Store{
		clk:      cfg.Clock,
		cluster:  raft.NewCluster(n, cfg),
		timeout:  defaultRequestTimeout,
		stopCh:   make(chan struct{}),
		reqFloor: 1,
		inflight: make(map[uint64]struct{}),
		hub:      store.NewHub[Event](),
		sms:      make(map[int]*stateMachine, n),
		stops:    make(map[int]chan struct{}, n),
	}
	s.ids = s.cluster.IDs()
	s.compactEvery.Store(defaultCompactEvery)
	for i := range s.waiters {
		s.waiters[i].m = make(map[uint64]chan result)
	}
	for _, id := range s.ids {
		s.startApplier(id)
	}
	return s
}

// BatchStats reports the write calls the store has numbered, as both the
// log entries they took and the commands those carried: every write is
// its own entry. bench reads it for etcd.cmds_per_batch.
func (s *Store) BatchStats() (batches, cmds uint64) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.reqSeq, s.reqSeq
}

// ReplicationStats returns per-node Raft replication counters
// (appends, entries-per-append, rejects, snapshots sent).
func (s *Store) ReplicationStats() map[int]raft.ReplicationStats {
	return s.cluster.ReplicationStats()
}

// Close shuts down the cluster and all watchers.
func (s *Store) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	stops := s.stops
	s.stops = map[int]chan struct{}{}
	s.mu.Unlock()

	for _, st := range stops {
		close(st)
	}
	close(s.stopCh)
	s.cluster.Stop()
	s.hub.Close()
}

// Instrument publishes the facade's operational metrics into reg: the
// watch hub's queue depth, per-replica engine metrics (commits, history
// drops), and client-operation counts. Call before serving.
func (s *Store) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mtr.Store(reg)
	s.hub.Instrument(reg, "etcd")
	s.cluster.Instrument(reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sm := range s.sms {
		s.instrumentReplica(id, sm)
	}
}

// instrumentReplica hooks a replica's engine into the registry Instrument
// was given, if any. Callers hold s.mu: Instrument stores the registry
// before it takes s.mu, so an engine installed meanwhile is not missed.
func (s *Store) instrumentReplica(id int, sm *stateMachine) {
	if reg := s.mtr.Load(); reg != nil {
		sm.eng.Instrument(reg, fmt.Sprintf("etcd-node%d", id))
	}
}

// Proposals reports how many entries were submitted to the Raft log.
// Reads never add to it.
func (s *Store) Proposals() uint64 { return s.proposals.Load() }

// PartitionNode isolates raft node id from the rest of the cluster
// (messages both ways are dropped) until HealNode. Unlike CrashNode the
// node and its applier keep running — this is the knife the stale-leader
// and linearizability chaos tests cut with.
func (s *Store) PartitionNode(id int) { s.cluster.Transport().Partition(id) }

// HealNode reconnects a partitioned node.
func (s *Store) HealNode(id int) { s.cluster.Transport().Heal(id) }

// startApplier builds a state machine for node id — restored from the
// node's persisted snapshot if it has one — and pumps its apply channel,
// compacting the Raft log periodically.
func (s *Store) startApplier(id int) {
	node := s.cluster.Node(id)
	if node == nil {
		return
	}
	sm := newStateMachine()
	if snap, idx := node.Snapshot(); idx > 0 {
		if restored, ok := restoreStateMachine(snap, idx); ok {
			sm = restored
		}
		s.hub.Publish(idx, nil) // advance the delivery cursor past the image
	}
	stop := make(chan struct{})
	s.mu.Lock()
	s.instrumentReplica(id, sm)
	s.sms[id] = sm
	s.stops[id] = stop
	s.mu.Unlock()
	go func() {
		applied := 0
		for {
			select {
			case <-stop:
				return
			case a := <-node.ApplyCh():
				if a.IsSnapshot {
					// The leader fast-forwarded this lagging node. A corrupt
					// image keeps the current machine.
					if next, ok := restoreStateMachine(a.Snapshot, a.SnapIndex); ok {
						s.swapReplica(id, sm, next)
						sm = next
					}
					s.hub.Publish(a.SnapIndex, nil)
					applied = 0
					continue
				}
				s.applyEntry(sm, a.Entry)
				applied++
				if applied >= int(s.compactEvery.Load()) {
					_ = node.Compact(a.Entry.Index, sm.serialize())
					applied = 0
				}
			}
		}
	}()
}

// swapReplica makes next node id's state machine in place of old. Reads
// already holding old's engine finish on it. A node that crashed since
// keeps no machine: its slot no longer holds old.
func (s *Store) swapReplica(id int, old, next *stateMachine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sms[id] == old {
		s.instrumentReplica(id, next)
		s.sms[id] = next
	}
}

// applyEntry applies one committed entry to a replica's state machine,
// hands the entry's events to the hub, whose revision cursor delivers
// each log index exactly once no matter how many replicas apply it, and
// completes the client waiter.
func (s *Store) applyEntry(sm *stateMachine, e raft.Entry) {
	reqID, res, events := sm.applyEntry(e.Index, e.Cmd)
	// Publish before completing the call: once it returns, the entry's
	// revision is already past the hub's delivery cursor, so a Watch
	// opened after an acknowledged write can never be handed that write's
	// own events ("events begin with the first revision applied after the
	// call"). The cursor demands exactly one publish per revision, no-ops
	// included.
	s.hub.Publish(e.Index, events)
	if reqID != 0 {
		s.complete(reqID, res)
	}
}

// CrashNode stops raft node id, preserving its durable state.
func (s *Store) CrashNode(id int) {
	s.mu.Lock()
	if st, ok := s.stops[id]; ok {
		close(st)
		delete(s.stops, id)
	}
	delete(s.sms, id)
	s.mu.Unlock()
	s.dropLeader() // the crashed node may be the cached leader
	s.cluster.Crash(id)
}

// RestartNode reboots a crashed node; its state machine is rebuilt from
// the replayed log.
func (s *Store) RestartNode(id int) {
	s.cluster.Restart(id)
	s.startApplier(id)
}

// Nodes returns the cluster membership.
func (s *Store) Nodes() []int { return s.cluster.IDs() }

// LeaderID returns the current leader's ID, or -1.
func (s *Store) LeaderID() int {
	l := s.leader()
	if l == nil {
		return -1
	}
	return l.ID()
}

// ReadStats sums the raft read-path counters (confirmation rounds,
// reads resolved per round, lease fast-path reads, lease expiries)
// across live nodes — the numerators of bench meta-mixed's
// etcd.rounds_per_read and etcd.lease_reads_per_read.
func (s *Store) ReadStats() raft.ReadStats { return s.cluster.ReadStats() }
