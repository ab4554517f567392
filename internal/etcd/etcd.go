// Package etcd provides a replicated, linearizable key-value store built
// on the Raft implementation in internal/raft. It stands in for the 3-way
// replicated etcd cluster that DLaaS uses to coordinate the Helper
// controller and the Guardian ("we employ the ETCD key-value store to
// co-ordinate between the controller and LCM/Guardian... ETCD itself is
// replicated (3-way), and uses the Raft consensus protocol").
//
// Writes are sequenced through the Raft log. Reads never enter it: Get,
// Range and read-only Txn are served from the least-loaded replica's MVCC
// snapshot at an applied floor the leader vouches for — via its
// check-quorum lease when live (zero messages per read) or a coalesced
// quorum heartbeat round otherwise (one round resolves every read in
// flight during it) — linearizable results with zero log entries per
// read. SerializableRange is the stale-tolerant local read that needs no
// quorum. Watches observe the apply stream and survive the crash of any
// minority of nodes.
//
// Since the metadata-plane refactor this package is a facade over the
// MVCC engine in internal/store: each replica's deterministic
// state machine is a store.EngineOf[string] in external-revision mode (the
// Raft log index is the revision), watch delivery goes through a store.Hub
// whose revision cursor dedupes the per-replica apply streams, and the
// client-side request plumbing (request IDs, waiter completion) uses
// striped maps — there is no store-wide mutex on the request path; the
// remaining Store.mu only guards node lifecycle (crash/restart/close).
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
	// ErrCASFailed indicates the compare-and-swap precondition failed.
	ErrCASFailed = errors.New("etcd: compare failed")
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

// opKind enumerates commands in the replicated log. The values are the
// wire encoding; 4 and 5 were reads, which no longer enter the log.
type opKind uint8

const (
	opPut opKind = iota + 1
	opDelete
	opCAS
	_
	_
	opTxn
	// opBatch is a group-commit wrapper: one log entry carrying the
	// sub-commands of every propose() call that queued while the
	// previous batch's round was in flight. All sub-commands apply at
	// the wrapper's single log index (one revision).
	opBatch
)

// Cmp is a transaction guard, with the same semantics as
// CompareAndSwap's precondition: when PrevExists the key must exist with
// value Prev; otherwise the key must be absent.
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

// command is the payload of a Raft entry (codec.go has its encoding).
type command struct {
	// ReqID identifies the client call for exactly-once application: the
	// Store numbers its calls 1, 2, 3, ... (a wrapper has none).
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
	// Subs are the sub-commands of an opBatch wrapper, applied in order.
	Subs []command
}

// result is what applying a command yields (deterministic on every node).
type result struct {
	ok  bool // CAS success / txn branch taken
	rev uint64
}

// defaultRequestTimeout bounds how long a client op waits for commit.
const defaultRequestTimeout = 5 * time.Second

// proposeWait is how long one proposal waits for its apply before
// re-proposing (leadership may have changed and the entry been lost).
const proposeWait = 500 * time.Millisecond

// readIndexWait bounds one leader read-index round; the read path
// retries rounds until the request deadline.
const readIndexWait = 500 * time.Millisecond

// retryPause is the backoff between read/propose retries while the
// cluster has no reachable leader.
const retryPause = 20 * time.Millisecond

// defaultCompactEvery is how many applied entries a node accumulates
// before snapshotting its state machine and compacting the Raft log.
const defaultCompactEvery = 1000

// waiterStripes is the size of the striped waiter table; striping keeps
// request registration and completion off any store-wide lock.
const waiterStripes = 64

// waiterStripe is one lock shard of the in-flight proposal table.
type waiterStripe struct {
	mu sync.Mutex
	m  map[uint64]*proposal
}

// proposal is one log entry's worth of client commands. Writers append
// to the queued proposal; a flusher drains it and registers it in the
// waiter table under its first command's ReqID, where the first replica
// to apply the entry finds it.
type proposal struct {
	cmds []command
	// replies[i] receives cmds[i]'s result. Each is buffered and gets
	// exactly one send (the table hands a proposal out once), so apply
	// never blocks on a client that gave up.
	replies []chan result
	// done gets one send, after the replies, when the entry has applied:
	// the flusher stops re-proposing.
	done chan struct{}
}

func newProposal() *proposal { return &proposal{done: make(chan struct{}, 1)} }

// Who owns the buffers a write goes through, and when they are reused:
//   - A reply channel is the one thing shared across goroutines: a call
//     takes one from the store's replyPool and puts it back once it has
//     received its own reply, when complete has made the channel's only
//     send. A call that timed out or saw the store close drops its
//     channel, because a late complete may still send into it.
//   - Each flusher (batchLoop) owns one proposal. Its cmds and replies
//     slices trade places with the queue's under batchMu, so the queue
//     always appends into a flusher's emptied spares. The flusher reuses
//     the proposal only once replicate says it is settled: its entry
//     applied (complete signalled done), or it was taken back from the
//     waiter table before an applier found it. Otherwise an applier may
//     still be completing it, and the flusher starts a new one.
//   - Each replica's applier owns its stateMachine's scratch (the ops an
//     entry installs, the staged writes its guards read, the results and
//     the events it yields), reused entry after entry: the hub copies
//     published events, and complete copies each result into its reply
//     channel before the applier takes its next entry.
//
// replyPool is a stack, not a sync.Pool, so the channel put back last is
// the next one taken: one put back too early is drawn at once, by the
// same goroutine's next call, rather than whenever the runtime's per-P
// caches hand it out (TestTimedOutCallKeepsItsReply depends on that).
type replyPool struct {
	mu   sync.Mutex
	free []chan result
}

func (p *replyPool) get() chan result {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return make(chan result, 1)
	}
	ch := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return ch
}

func (p *replyPool) put(ch chan result) {
	p.mu.Lock()
	p.free = append(p.free, ch)
	p.mu.Unlock()
}

// maxInflightProposals is how many group-commit proposals may be in the
// Raft log's pipeline at once — the number of flusher goroutines. Sized
// by two measurements, not an option. From below, bench meta-write: its
// closed-loop clients (min(nproc,4)) each need a free flusher or they
// wait out a stranger's round — 2 clients: 1 → 2 flushers takes
// ops_per_wall_s 211 → 430 and put_virtual_ms_p50 4 → 2 ms, 4 and 8 add
// nothing; 4 writers x 200 Puts: 693 / 404 / 449 ms virtual at 2 / 4 / 8.
// From above, BenchmarkEtcdWrites (64 writers, slow
// flapping follower, -benchtime=64x) must still coalesce the burst:
// 13–16 writes/proposal at 4, 7 at 8, 3.8 at 16 (floor: 4), p99 commit
// latency 6 ms virtual at every depth.
const maxInflightProposals = 4

// opCounter tallies one operation kind, successes and failures apart:
// a timed-out Range is not a scan the platform spent.
type opCounter struct {
	ok   atomic.Uint64
	fail atomic.Uint64
}

// replicaLoad tracks one replica's read traffic for least-loaded
// routing: inflight is the gauge routing reads against, routed the
// cumulative dispatch count, label the replica's metrics label.
type replicaLoad struct {
	inflight atomic.Int64
	routed   atomic.Uint64
	label    string
}

// Store is a handle to the replicated KV cluster.
type Store struct {
	clk     clock.Clock
	cluster *raft.Cluster
	timeout time.Duration

	compactEvery atomic.Int64
	closed       atomic.Bool
	stopCh       chan struct{}

	// Request numbering. reqSeq is the last ID handed out; inflight holds
	// the IDs whose proposal may still be (re-)proposed; reqFloor is the
	// smallest of them (reqSeq+1 when none is) — the low-water mark every
	// command carries to the replicas' dedup ledgers.
	reqMu    sync.Mutex
	reqSeq   uint64
	reqFloor uint64
	inflight map[uint64]struct{}

	// Group-commit state: writers append to batchQ and kick a flusher,
	// which drains the queue into one log entry. batches/batchedCmds feed
	// the batch-occupancy metric.
	batchMu     sync.Mutex
	batchQ      proposal
	batchKick   chan struct{}
	batches     atomic.Uint64
	batchedCmds atomic.Uint64

	// Client-operation counters, split by kind: the control plane's cost
	// is read off them as Range scans per job.
	cRange, cPut, cGet, cDelete, cCAS, cTxn, cWatch opCounter

	// proposals counts entries actually submitted to the Raft log.
	proposals atomic.Uint64

	// leaderCache short-circuits the per-op leader scan; dropLeader
	// invalidates it on any leader-side failure. ids is the fixed
	// membership in id order, readLoads its per-replica routing gauges and
	// counters; routeRR rotates tie-breaks so idle read traffic spreads
	// across replicas.
	leaderCache atomic.Pointer[raft.Node]
	ids         []int
	readLoads   map[int]*replicaLoad
	routeRR     atomic.Uint64

	mtr atomic.Pointer[metrics.Registry]

	waiters [waiterStripes]waiterStripe
	replies replyPool
	hub     *store.Hub[Event]

	// mu guards replica lifecycle only (cold path).
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
		clk:       cfg.Clock,
		cluster:   raft.NewCluster(n, cfg),
		timeout:   defaultRequestTimeout,
		stopCh:    make(chan struct{}),
		batchKick: make(chan struct{}, 1),
		reqFloor:  1,
		inflight:  make(map[uint64]struct{}),
		hub:       store.NewHub[Event](),
		sms:       make(map[int]*stateMachine, n),
		stops:     make(map[int]chan struct{}, n),
	}
	s.ids = s.cluster.IDs()
	s.readLoads = make(map[int]*replicaLoad, n)
	for _, id := range s.ids {
		s.readLoads[id] = &replicaLoad{label: fmt.Sprintf("node%d", id)}
	}
	s.compactEvery.Store(defaultCompactEvery)
	for i := range s.waiters {
		s.waiters[i].m = make(map[uint64]*proposal)
	}
	for _, id := range s.ids {
		s.startApplier(id)
	}
	for i := 0; i < maxInflightProposals; i++ {
		go s.batchLoop()
	}
	return s
}

// BatchStats reports how many group-commit batches were flushed and how
// many client commands they carried (a lone write is a batch of one);
// cmds/batches is the mean batch occupancy.
func (s *Store) BatchStats() (batches, cmds uint64) {
	return s.batches.Load(), s.batchedCmds.Load()
}

// ReplicationStats returns per-node Raft replication counters
// (appends, entries-per-append, rejects, snapshot chunks).
func (s *Store) ReplicationStats() map[int]raft.ReplicationStats {
	return s.cluster.ReplicationStats()
}

// SetNodeDelay adds extra one-way latency to every raft message
// addressed to node id (a slow follower); non-positive d removes it.
func (s *Store) SetNodeDelay(id int, d time.Duration) {
	s.cluster.Transport().SetNodeDelay(id, d)
}

// SetCompactEvery overrides the per-node log-compaction threshold
// (entries applied between snapshots). Intended for tests and benches.
func (s *Store) SetCompactEvery(n int) {
	if n > 0 {
		s.compactEvery.Store(int64(n))
	}
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
		sm.instrument(reg, fmt.Sprintf("etcd-node%d", id))
	}
}

// finishOp tallies one completed client operation of the given kind.
// Successes and failures are counted apart — counting before the
// attempt inflated RangeOps with scans that then timed out. Operations
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

// RangeOps reports how many Range scans clients have completed.
func (s *Store) RangeOps() uint64 { return s.cRange.ok.Load() }

// Proposals reports how many entries were submitted to the Raft log.
// Reads never add to it.
func (s *Store) Proposals() uint64 { return s.proposals.Load() }

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
	if reg := s.mtr.Load(); reg != nil {
		sm.instrument(reg, fmt.Sprintf("etcd-node%d", id))
	}
	if snap, idx := node.Snapshot(); idx > 0 {
		sm.restore(snap, idx)
		s.hub.Publish(idx, nil) // advance the delivery cursor past the image
	}
	stop := make(chan struct{})
	s.mu.Lock()
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
					// The leader fast-forwarded this lagging node.
					sm.restore(a.Snapshot, a.SnapIndex)
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

// applyEntry applies one committed entry to a replica's state machine,
// completes the client waiter, and hands the entry's events to the hub,
// whose revision cursor delivers each log index exactly once no matter
// how many replicas apply it.
func (s *Store) applyEntry(sm *stateMachine, e raft.Entry) {
	if len(e.Cmd) == 0 {
		// Raft-internal no-op (the read-index term barrier): it still
		// occupies a log index, so advance the applied floor — read-index
		// waits stall below it otherwise — and the hub's delivery cursor.
		sm.advance(e.Index)
		s.hub.Publish(e.Index, nil)
		return
	}
	cmd, ok := decodeCommand(e.Cmd)
	if !ok {
		// Corrupt entry: a deterministic no-op on every node, but its
		// index must not leave a hole under the floor or the cursor.
		sm.advance(e.Index)
		s.hub.Publish(e.Index, nil)
		return
	}
	cmds := cmd.Subs
	if cmd.Op != opBatch {
		cmds = []command{cmd}
	}
	// Publish before completing the proposal: once a client's call
	// returns, the entry's revision is already past the hub's delivery
	// cursor, so a Watch opened after an acknowledged write can never be
	// handed that write's own events ("events begin with the first
	// revision applied after the call"). A wrapper's concatenated events
	// publish once — the cursor demands exactly one publish per revision.
	results, events := sm.apply(e.Index, cmds)
	s.hub.Publish(e.Index, events)
	s.complete(cmds[0].ReqID, results)
}

// complete hands an applied entry's results to the proposal waiting
// under reqID and releases its flusher. results is the applier's
// scratch: each is copied into its reply channel here. First applier
// wins (all replicas produce the same deterministic results); later
// appliers and re-proposed duplicates find the table entry gone.
func (s *Store) complete(reqID uint64, results []result) {
	p, ok := s.takeWaiter(reqID)
	if !ok {
		return
	}
	for i, ch := range p.replies {
		ch <- results[i]
	}
	p.done <- struct{}{} // the last touch: the flusher may reuse p now
}

func (s *Store) putWaiter(reqID uint64, p *proposal) {
	st := &s.waiters[reqID%waiterStripes]
	st.mu.Lock()
	st.m[reqID] = p
	st.mu.Unlock()
}

func (s *Store) takeWaiter(reqID uint64) (*proposal, bool) {
	st := &s.waiters[reqID%waiterStripes]
	st.mu.Lock()
	p, ok := st.m[reqID]
	if ok {
		delete(st.m, reqID)
	}
	st.mu.Unlock()
	return p, ok
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

// CompareAndSwap atomically replaces key's value with newValue iff the
// current value equals prev (prevExists=false means "key must not
// exist"). Returns ErrCASFailed when the precondition does not hold.
func (s *Store) CompareAndSwap(key, prev string, prevExists bool, newValue string) error {
	res, err := s.propose(command{
		Op: opCAS, Key: key, Value: newValue, Prev: prev, PrevExists: prevExists,
	})
	s.finishOp("cas", &s.cCAS, err)
	if err != nil {
		return fmt.Errorf("cas %q: %w", key, err)
	}
	if !res.ok {
		return ErrCASFailed
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

// Watch subscribes to changes of keys under prefix. Cancel releases the
// subscription. Events begin with the first revision applied after the
// call.
func (s *Store) Watch(prefix string) (events <-chan Event, cancel func()) {
	s.finishOp("watch", &s.cWatch, nil)
	return s.hub.Watch(prefix)
}

// WatchFrom subscribes to changes of keys under prefix starting after
// startRev: every event with revision (Raft index) > startRev is
// delivered exactly once, in order — events committed before the call
// are backfilled from a replica's bounded MVCC version history, then
// the stream continues live. It fails with ErrCompacted when the
// retained history no longer reaches back to startRev (log compaction
// or a snapshot restore dropped the window); the consumer then falls
// back to Range + Watch from the present. This is the resume contract
// the Guardian uses to pick up exactly where a crashed predecessor
// left off.
func (s *Store) WatchFrom(prefix string, startRev uint64) (<-chan Event, func(), error) {
	ch, cancel, err := s.watchFrom(prefix, startRev)
	s.finishOp("watch", &s.cWatch, err)
	return ch, cancel, err
}

func (s *Store) watchFrom(prefix string, startRev uint64) (<-chan Event, func(), error) {
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	ch, cancel, cursor := s.hub.WatchCursor(prefix)
	if startRev == cursor {
		return ch, cancel, nil
	}
	var backfill []Event
	if startRev < cursor {
		sm := s.replicaAt(cursor)
		if sm == nil {
			cancel()
			return nil, nil, fmt.Errorf("etcd: watch %q from %d: %w: no live replica reaches revision %d",
				prefix, startRev, ErrCompacted, cursor)
		}
		var err error
		backfill, err = sm.historyEvents(prefix, startRev, cursor)
		if err != nil {
			cancel()
			return nil, nil, fmt.Errorf("etcd: watch %q from %d: %w", prefix, startRev, err)
		}
	}
	after := cursor
	if startRev > cursor {
		// Resuming from a revision the hub has not delivered yet (e.g. a
		// cursor saved by a faster replica): filter the overlap instead
		// of replaying it.
		after = startRev
	}
	out, stopSplice := store.SpliceEvents(backfill, ch, after, s.stopCh)
	var once sync.Once
	return out, func() { once.Do(func() { stopSplice(); cancel() }) }, nil
}

// replicaAt picks a live state machine whose applied floor covers rev,
// preferring the one with the deepest retained history (lowest resume
// floor). It waits briefly for an applier to catch up to the hub
// cursor — the cursor only advances after some replica applied rev, but
// that replica may have crashed since.
func (s *Store) replicaAt(rev uint64) *stateMachine {
	deadline := s.clk.Now().Add(2 * time.Second)
	for {
		var best *stateMachine
		var bestFloor uint64
		s.mu.Lock()
		for _, sm := range s.sms {
			eng := sm.engine()
			if eng.Snapshot() < rev {
				continue
			}
			if f := eng.ResumeFloor(); best == nil || f < bestFloor {
				best, bestFloor = sm, f
			}
		}
		s.mu.Unlock()
		if best != nil || !s.clk.Now().Before(deadline) || s.closed.Load() {
			return best
		}
		s.clk.Sleep(10 * time.Millisecond)
	}
}

// readIndexRead is every linearizable read's path, with no log entry:
// obtain a read index from the leader (a live check-quorum lease answers
// it for free; otherwise ReadIndex confirms leadership with a quorum
// heartbeat round that concurrent reads share, so a deposed leader can
// never answer), wait for a routed replica's state machine to apply
// through it, and return that replica's engine for the caller to read
// its local MVCC snapshot.
func (s *Store) readIndexRead() (*store.EngineOf[string], error) {
	deadline := s.clk.Now().Add(s.timeout)
	for {
		if s.closed.Load() {
			return nil, ErrClosed
		}
		node := s.readNode()
		if node == nil {
			if !s.pause(deadline) {
				return nil, ErrTimeout
			}
			continue
		}
		idx, err := node.ReadIndex(readIndexWait)
		if err != nil {
			// No leader, deposed mid-round, or no quorum answered: retry
			// against whoever leads next, bounded by the deadline.
			s.dropLeader()
			if !s.pause(deadline) {
				return nil, ErrTimeout
			}
			continue
		}
		eng, ok := s.routedWait(idx, deadline)
		if !ok {
			if s.closed.Load() {
				return nil, ErrClosed
			}
			return nil, ErrTimeout
		}
		return eng, nil
	}
}

// routeSlice bounds one applied-floor wait on a routed replica before
// re-routing: a partitioned or crashed replica stops applying, and its
// piling-up in-flight gauge steers later picks elsewhere while this
// read hops to a replica still making progress.
const routeSlice = 250 * time.Millisecond

// routedWait dispatches a read's applied-floor wait to the least-loaded
// live replica — follower read serving. Replicas already applied
// through idx are preferred (their wait costs nothing); ties rotate.
func (s *Store) routedWait(idx uint64, deadline time.Time) (*store.EngineOf[string], bool) {
	for {
		id, sm := s.routeReplica(idx)
		if sm == nil {
			if s.closed.Load() || !s.pause(deadline) {
				return nil, false
			}
			continue
		}
		ld := s.readLoads[id]
		ld.inflight.Add(1)
		ld.routed.Add(1)
		if reg := s.mtr.Load(); reg != nil {
			reg.Inc("etcd_reads_routed", ld.label)
			reg.SetGauge("etcd_inflight_reads", float64(ld.inflight.Load()), ld.label)
		}
		sliceEnd := s.clk.Now().Add(routeSlice)
		if sliceEnd.After(deadline) {
			sliceEnd = deadline
		}
		eng, ok := s.waitApplied(sm, idx, sliceEnd)
		ld.inflight.Add(-1)
		if ok {
			return eng, true
		}
		if s.closed.Load() || !s.clk.Now().Before(deadline) {
			return nil, false
		}
	}
}

// routeReplica picks the replica for one applied-floor wait: live,
// already-applied-through-idx replicas first, least in-flight load
// within a class, rotation breaking exact ties.
func (s *Store) routeReplica(idx uint64) (int, *stateMachine) {
	offset := int(s.routeRR.Add(1))
	ids := s.ids
	s.mu.Lock()
	defer s.mu.Unlock()
	bestID := -1
	var best *stateMachine
	var bestLoad int64
	var bestReady bool
	for i := 0; i < len(ids); i++ {
		id := ids[(i+offset)%len(ids)]
		sm := s.sms[id]
		if sm == nil {
			continue
		}
		ready := sm.engine().Snapshot() >= idx
		load := s.readLoads[id].inflight.Load()
		if best == nil || (ready && !bestReady) ||
			(ready == bestReady && load < bestLoad) {
			bestID, best, bestLoad, bestReady = id, sm, load, ready
		}
	}
	return bestID, best
}

// serializableRead picks a freshest live replica's engine to read
// locally, no leadership round: bounded staleness, never wrongness, and
// it stays available when the cluster has no quorum. Among equally
// fresh replicas the least read-loaded one serves (freshness first —
// trading it away would widen the staleness bound).
func (s *Store) serializableRead() (*store.EngineOf[string], error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	offset := int(s.routeRR.Add(1))
	ids := s.ids
	bestID := -1
	var best *store.EngineOf[string]
	var bestFloor uint64
	var bestLoad int64
	s.mu.Lock()
	for i := 0; i < len(ids); i++ {
		id := ids[(i+offset)%len(ids)]
		sm := s.sms[id]
		if sm == nil {
			continue
		}
		eng := sm.engine()
		f := eng.Snapshot()
		load := s.readLoads[id].inflight.Load()
		if best == nil || f > bestFloor || (f == bestFloor && load < bestLoad) {
			bestID, best, bestFloor, bestLoad = id, eng, f, load
		}
	}
	s.mu.Unlock()
	if best == nil {
		return nil, ErrTimeout // every replica crashed
	}
	ld := s.readLoads[bestID]
	ld.routed.Add(1)
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("etcd_reads_routed", ld.label)
	}
	return best, nil
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

// leader resolves the current leader through a cached pointer: the
// hot paths (every read-index round, every proposal) must not scan all
// nodes per op. The cached node revalidates by its own Status — one
// mutex, no cluster scan — and the cache drops on any leader-side
// failure (ErrNotLeader / ErrStopped / round timeout, via dropLeader)
// or on observing the node out of Leader state; the next call then
// pays one full scan to re-prime it.
func (s *Store) leader() *raft.Node {
	if n := s.leaderCache.Load(); n != nil {
		if st, _ := n.Status(); st == raft.Leader {
			return n
		}
		s.leaderCache.CompareAndSwap(n, nil)
	}
	n := s.cluster.Leader()
	if n != nil {
		s.leaderCache.Store(n)
	} else {
		s.wake()
	}
	return n
}

// dropLeader invalidates the leader cache after a leader-side failure
// (the node answered ErrNotLeader, stopped, or its round timed out —
// leadership likely moved even if the stale node still believes).
func (s *Store) dropLeader() {
	s.leaderCache.Store(nil)
	s.wake()
}

// wake tells every live member that a client wanted a leader and did not
// get one. A settled cluster heartbeats — and suspects a silent leader —
// at a tenth of the rate (raft's idle cadence); this is what makes
// failover cost one ordinary election timeout from the first request
// instead. On members that are not idle it is a mutex and a flag.
func (s *Store) wake() {
	for _, id := range s.ids {
		if n := s.cluster.Node(id); n != nil {
			n.Wake()
		}
	}
}

// readNode picks the node to ask for a read index: the leader when one
// is visible, otherwise any live node, whose ReadIndex forwards to the
// leader it believes in.
func (s *Store) readNode() *raft.Node {
	if l := s.leader(); l != nil {
		return l
	}
	for _, id := range s.ids {
		if n := s.cluster.Node(id); n != nil {
			return n
		}
	}
	return nil
}

// replica returns node id's state machine, or nil when crashed.
func (s *Store) replica(id int) *stateMachine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sms[id]
}

// waitAppliedSlice bounds one wait on a replica's applied floor before
// re-fetching its engine (a snapshot restore swaps the engine, and the
// old one's floor stops moving).
const waitAppliedSlice = 25 * time.Millisecond

// waitApplied blocks until sm has applied the log through idx and
// returns the engine that reached it. A replica already there answers
// at once, with no waiter and no timer; otherwise each slice deregisters
// its waiter before re-fetching the engine, so abandoned waits don't
// accumulate on a lagging replica.
func (s *Store) waitApplied(sm *stateMachine, idx uint64, deadline time.Time) (*store.EngineOf[string], bool) {
	for {
		eng := sm.engine()
		if eng.Snapshot() >= idx || s.awaitFloor(eng, idx) {
			return eng, true
		}
		if s.closed.Load() || !s.clk.Now().Before(deadline) {
			return nil, false
		}
	}
}

// awaitFloor waits one waitAppliedSlice for eng's applied floor to reach
// idx, and reports whether it did.
func (s *Store) awaitFloor(eng *store.EngineOf[string], idx uint64) bool {
	ch, cancelWait := eng.WaitApplied(idx)
	t := clock.AcquireTimer(s.clk, waitAppliedSlice)
	defer clock.ReleaseTimer(t)
	select {
	case <-ch:
		return true
	case <-t.C():
	case <-s.stopCh:
	}
	cancelWait()
	return false
}

// pause sleeps the retry backoff and reports whether the deadline still
// allows another attempt.
func (s *Store) pause(deadline time.Time) bool {
	s.clk.Sleep(retryPause)
	return s.clk.Now().Before(deadline)
}

// propose routes a mutation through the Raft log: it joins the
// group-commit queue, and the call waits for its application.
func (s *Store) propose(cmd command) (result, error) {
	if s.closed.Load() {
		return result{}, ErrClosed
	}
	cmd.ReqID = s.beginRequest()
	reply := s.replies.get()
	t := clock.AcquireTimer(s.clk, s.timeout)
	defer clock.ReleaseTimer(t)
	s.batchMu.Lock()
	s.batchQ.cmds = append(s.batchQ.cmds, cmd)
	s.batchQ.replies = append(s.batchQ.replies, reply)
	s.setQueueDepth(len(s.batchQ.cmds))
	s.batchMu.Unlock()
	select {
	case s.batchKick <- struct{}{}:
	default:
	}

	// Only a channel that delivered its reply goes back to the pool: the
	// other two cases drop theirs to any late send.
	select {
	case res := <-reply:
		s.replies.put(reply)
		return res, nil
	case <-t.C():
		return result{}, ErrTimeout
	case <-s.stopCh:
		return result{}, ErrClosed
	}
}

// beginRequest numbers one client call and marks it in flight; the
// replicate call that carries it ends that (endRequests).
func (s *Store) beginRequest() uint64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	s.reqSeq++
	s.inflight[s.reqSeq] = struct{}{}
	return s.reqSeq
}

// endRequests retires cmds' IDs — their proposal will not be proposed
// again — and raises the floor past every ID no longer in flight.
func (s *Store) endRequests(cmds []command) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	for i := range cmds {
		delete(s.inflight, cmds[i].ReqID)
	}
	for s.reqFloor <= s.reqSeq {
		if _, busy := s.inflight[s.reqFloor]; busy {
			break
		}
		s.reqFloor++
	}
}

// requestFloor is the smallest request ID still in flight.
func (s *Store) requestFloor() uint64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.reqFloor
}

// setQueueDepth publishes the group-commit queue's depth; called with
// batchMu held so an enqueue's reading never overwrites a later drain's.
func (s *Store) setQueueDepth(depth int) {
	if reg := s.mtr.Load(); reg != nil {
		reg.SetGauge("etcd_batch_queue_depth", float64(depth))
	}
}

// batchLoop is one group-commit flusher; maxInflightProposals of them
// run, each an in-flight slot. A flusher drains the whole queue into one
// log entry and replicates it while the others keep draining, so a
// write that arrives mid-round is proposed in the same virtual instant
// instead of waiting out a stranger's round. No artificial delay: the
// queue only accumulates while every flusher is mid-round, so a lone
// write flushes immediately and batching emerges only from bursts.
//
// Why overlapping proposals are safe — the log position, not the moment
// of proposing, fixes the one serial order every replica executes:
//  1. Each client call blocks until its command applies, so a
//     goroutine never has calls in two proposals at once: its writes
//     reach the log in program order. (A call that gave up with
//     ErrTimeout has an unknown outcome and may still apply later, as
//     in any replicated log.)
//  2. Calls of different goroutines that sit in unapplied proposals
//     together overlap in time, so they are concurrent and may
//     linearize in either log order; a call that starts after another
//     returned is enqueued after that one applied, at a higher index.
//  3. A proposal lost to leadership churn and re-proposed may land
//     after a later proposal, or twice; both orders are covered by 2,
//     and per-request dedup in the state machine keeps every command
//     exactly-once.
func (s *Store) batchLoop() {
	p := newProposal()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.batchKick:
		}
		for {
			// The flusher takes the queued slices and leaves its own,
			// empty, as the queue's.
			s.batchMu.Lock()
			p.cmds, s.batchQ.cmds = s.batchQ.cmds, p.cmds
			p.replies, s.batchQ.replies = s.batchQ.replies, p.replies
			s.setQueueDepth(0)
			s.batchMu.Unlock()
			if len(p.cmds) == 0 {
				break
			}
			s.batches.Add(1)
			s.batchedCmds.Add(uint64(len(p.cmds)))
			if reg := s.mtr.Load(); reg != nil {
				reg.Inc("etcd_batches")
				reg.Add("etcd_batched_cmds", float64(len(p.cmds)))
			}
			if !s.replicate(p) {
				p = newProposal() // an applier may still be completing p
				continue
			}
			clear(p.cmds)
			clear(p.replies)
			p.cmds, p.replies = p.cmds[:0], p.replies[:0]
		}
	}
}

// replicate is the store's one propose → wait → re-propose loop. It
// submits p as a single log entry — the bare command when p holds one,
// an opBatch wrapper otherwise — and returns once a replica applied it
// (complete delivers the results), the request timeout passes, or the
// store closes. On a timeout the entry is abandoned and its clients time
// out individually. The wait is event-driven (done channel vs. a clock
// timer); a re-proposal after proposeWait covers an entry lost to
// leadership churn, and the state machine's per-request dedup makes it
// idempotent. An entry that did not apply in proposeWait is not proposed
// again to the same leader in the same term — it is in that log, and a
// second copy commits no sooner — but the trouble is reported (dropLeader
// wakes an idle cluster) and the loop looks every retryPause for the
// successor the majority elects, so a leader cut off in an idle spell
// costs its proposeWait and one election, not two proposeWaits.
//
// It reports whether p is settled, the caller's to reuse: its entry
// applied, or p was taken back from the waiter table before any applier
// found it. An abandoned entry can still apply at any moment, so after a
// timeout or a close an applier may hold p.
func (s *Store) replicate(p *proposal) (settled bool) {
	defer s.endRequests(p.cmds)
	floor := s.requestFloor()
	for i := range p.cmds {
		p.cmds[i].Floor = floor
	}
	entry := &p.cmds[0]
	if len(p.cmds) > 1 {
		entry = &command{Op: opBatch, Subs: p.cmds}
	}
	payload := entry.encode()
	id := p.cmds[0].ReqID
	s.putWaiter(id, p)

	var in *raft.Node // whose log the entry is in, as leader of inTerm
	var inTerm uint64
	deadline := s.clk.Now().Add(s.timeout)
	for s.clk.Now().Before(deadline) && !s.closed.Load() {
		leader := s.leader()
		if leader == nil {
			s.clk.Sleep(retryPause)
			continue
		}
		wait := retryPause
		if leader != in || leader.Term() != inTerm {
			_, term, err := leader.Propose(payload)
			if err != nil {
				s.dropLeader()
				s.clk.Sleep(retryPause)
				continue
			}
			s.proposals.Add(1)
			in, inTerm, wait = leader, term, proposeWait
		}
		applied, closed := s.awaitApply(p, wait)
		if applied {
			return true
		}
		if !closed {
			s.dropLeader()
		}
	}
	_, settled = s.takeWaiter(id)
	return settled
}

// awaitApply waits up to wait for p's entry to apply. It reports whether
// it applied, and whether the store closed first.
func (s *Store) awaitApply(p *proposal, wait time.Duration) (applied, closed bool) {
	t := clock.AcquireTimer(s.clk, wait)
	defer clock.ReleaseTimer(t)
	select {
	case <-p.done:
		return true, false
	case <-t.C():
		return false, false
	case <-s.stopCh:
		return false, true
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

// SkewNodeClock offsets raft node id's local clock readings by d (0
// heals it) — the fault primitive the lease-safety tests and the chaos
// layer drive. Timers are unaffected: real skew shifts the values a
// node reads, not the rate its timers fire at, which is exactly what
// makes a skewed leader's lease deadline dangerous.
func (s *Store) SkewNodeClock(id int, d time.Duration) {
	s.cluster.SetClockSkew(id, d)
}

// ReadStats sums the raft read-path counters (confirmation rounds,
// reads resolved per round, lease fast-path reads, lease expiries)
// across live nodes — the numerators of the rounds-per-read economy
// BenchmarkEtcdReads measures.
func (s *Store) ReadStats() raft.ReadStats { return s.cluster.ReadStats() }

// ReadsRouted reports how many reads each replica has served (applied-
// floor waits of linearizable reads, local serves of SerializableRange),
// keyed by node ID — the follower-routing distribution.
func (s *Store) ReadsRouted() map[int]uint64 {
	out := make(map[int]uint64, len(s.readLoads))
	for id, ld := range s.readLoads {
		out[id] = ld.routed.Load()
	}
	return out
}

// stateMachine is the deterministic automaton each replica runs: an
// MVCC engine of string values in external-revision mode (the
// Raft index is the revision) plus the exactly-once dedup ledger. Its
// apply loop is single-goroutine per replica; mu only fences apply
// against restore.
//
// The ledger is bounded the way §6.3 of the Raft thesis bounds client
// sessions: every command carries the Store's low-water mark (the
// smallest request ID still in flight when it was encoded), the ledger
// forgets everything below the highest mark it has seen, and a command
// numbered below that mark can only be a stale copy, so it is a no-op.
type stateMachine struct {
	mu         sync.Mutex
	eng        *store.EngineOf[string]
	dedup      map[uint64]uint64 // reqID -> applied index, reqID >= dedupFloor
	dedupFloor uint64
	mtr        *metrics.Registry
	mtrName    string

	// The applier's scratch, cleared by every entry: the ops it installs,
	// the writes staged so far that later guards read (overlay), the
	// results, the engine's events for the ops, and their facade form.
	// apply returns results and events for complete and the hub to copy.
	ops      []store.OpOf[string]
	overlay  map[string]staged
	results  []result
	storeEvs []store.EventOf[string]
	events   []Event
}

// staged is a key's value after the entry's writes so far.
type staged struct {
	val    string
	exists bool
}

func newStateMachine() *stateMachine {
	return &stateMachine{
		eng:     store.NewEngineOf[string](store.Config{ExternalRevs: true}),
		dedup:   make(map[uint64]uint64),
		overlay: make(map[string]staged),
	}
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

// engine returns the current backing engine (swapped by restore).
func (m *stateMachine) engine() *store.EngineOf[string] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng
}

// advance raises the replica's applied floor past an index that carries
// no state change (raft no-ops, corrupt entries).
func (m *stateMachine) advance(idx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.eng.AdvanceFloor(idx)
}

// instrument hooks the replica's engine into the metrics registry and
// remembers the hookup so restore re-applies it to the fresh engine.
func (m *stateMachine) instrument(reg *metrics.Registry, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mtr, m.mtrName = reg, name
	m.eng.Instrument(reg, name)
}

// historyEvents reconstructs the facade events in (from, to] for keys
// under prefix from this replica's MVCC history.
func (m *stateMachine) historyEvents(prefix string, from, to uint64) ([]Event, error) {
	evs, err := m.engine().HistoryEvents(prefix, from, to)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return encodeSnapshot(m.eng.Export(), m.dedupFloor, m.dedup)
}

// restore replaces the state machine with a serialized image covering
// the log through snapIndex. The fresh engine's floor starts at
// snapIndex even when the image's highest key revision is older
// (trailing entries may have been deletes or reads): a read-index wait
// against this replica must see the whole snapshot as applied.
func (m *stateMachine) restore(raw []byte, snapIndex uint64) {
	// The image lists keys in sorted order, so every replica restoring it
	// installs them in the same order.
	kvs, floor, ledger, ok := decodeSnapshot(raw)
	if !ok {
		return // corrupt snapshot: keep current state
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	eng := store.NewEngineOf[string](store.Config{ExternalRevs: true})
	_ = eng.Import(kvs, snapIndex) // cannot fail: the engine is external-revs
	if m.mtr != nil {
		eng.Instrument(m.mtr, m.mtrName)
	}
	m.eng = eng
	m.dedup, m.dedupFloor = ledger, floor
}

// apply applies one log entry's commands at idx — the command of a bare
// entry, or a wrapper's sub-commands in order — and returns a result per
// command and the entry's events, both the applier's scratch: valid until
// its next entry. Guards of later commands must see earlier commands'
// effects, but the engine may only install the entry in one ApplyAt:
// installing per command would raise the applied floor mid-entry and let
// a read-index reader observe a half-applied batch. So writes are staged
// in an overlay that guard evaluation reads through, and the whole op
// list installs at once (the engine's same-revision rule — later op wins
// per key — collapses intra-entry overwrites).
func (m *stateMachine) apply(idx uint64, cmds []command) ([]result, []Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.overlay)
	m.results = m.results[:0]
	ops := m.ops[:0]
	for i := range cmds {
		cmd := &cmds[i]
		// Exactly-once: a re-proposed command may appear twice in the log;
		// only its first occurrence mutates state.
		if first, dup := m.firstApplied(idx, cmd); dup {
			m.results = append(m.results, result{rev: first, ok: true})
			continue
		}
		// Only a later command reads what this one stages.
		last := i == len(cmds)-1
		stage := func(op store.OpOf[string]) {
			ops = append(ops, op)
			if !last {
				m.overlay[op.Key] = staged{val: op.Value, exists: op.Kind == store.OpPut}
			}
		}
		res := result{rev: idx}
		switch cmd.Op {
		case opPut:
			stage(store.OpOf[string]{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value})
		case opDelete:
			stage(store.OpOf[string]{Kind: store.OpDelete, Key: cmd.Key})
		case opCAS:
			if m.holds(Cmp{Key: cmd.Key, Prev: cmd.Prev, PrevExists: cmd.PrevExists}) {
				stage(store.OpOf[string]{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value})
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
				stage(store.OpOf[string]{Kind: kind, Key: op.Key, Value: op.Value})
			}
		}
		m.results = append(m.results, res)
	}
	events := m.install(idx, ops)
	// Raise the applied floor only now, after every write is installed
	// (ApplyAt raises it itself, post-install; this covers failed guards,
	// empty branches and duplicates). Raising it before the write would let
	// a WaitApplied reader wake at this index and read the pre-write state
	// — a stale read after an acknowledged write. The WatchFrom backfill
	// also compares this floor against the hub's delivery cursor, so every
	// applied index must reach it.
	_ = m.eng.AdvanceFloor(idx)
	return m.results, events
}

// holds evaluates a guard against the latest applied state, as the
// entry's staged writes have changed it.
func (m *stateMachine) holds(c Cmp) bool {
	cur, ok := m.overlay[c.Key]
	if !ok {
		cur.val, _, cur.exists = m.eng.Get(c.Key)
	}
	return cur.exists == c.PrevExists && (!cur.exists || cur.val == c.Prev)
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
