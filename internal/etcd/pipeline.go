package etcd

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/raft"
)

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
