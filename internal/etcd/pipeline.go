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

// waiterStripe is one lock shard of the in-flight call table: each call
// waits under its ReqID on its reply channel, where the first replica to
// apply its entry finds it.
type waiterStripe struct {
	mu sync.Mutex
	m  map[uint64]chan result
}

// Who owns the buffers a write goes through, and when they are reused:
//   - A reply channel is the one thing shared across goroutines: a call
//     takes one from the store's replyPool, registers it in the waiter
//     table and puts it back once it has received its own reply. The
//     table hands a channel out once — to the applier that completes the
//     call, or back to the call that gave up — so complete makes the
//     channel's only send, into its buffer, and never blocks on a client.
//   - Each replica's applier owns its stateMachine's scratch (the ops an
//     entry installs, the result and the events it yields), reused entry
//     after entry: the hub copies published events, and complete copies
//     the result into the reply channel before the applier takes its next
//     entry.
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

// complete hands an applied entry's result to the call waiting under
// reqID. First applier wins (all replicas produce the same deterministic
// result); later appliers and re-proposed duplicates find the table entry
// gone.
func (s *Store) complete(reqID uint64, res result) {
	if ch, ok := s.takeWaiter(reqID); ok {
		ch <- res
	}
}

func (s *Store) putWaiter(reqID uint64, ch chan result) {
	st := &s.waiters[reqID%waiterStripes]
	st.mu.Lock()
	st.m[reqID] = ch
	st.mu.Unlock()
}

func (s *Store) takeWaiter(reqID uint64) (chan result, bool) {
	st := &s.waiters[reqID%waiterStripes]
	st.mu.Lock()
	ch, ok := st.m[reqID]
	if ok {
		delete(st.m, reqID)
	}
	st.mu.Unlock()
	return ch, ok
}

// propose routes one mutation through the Raft log as a log entry of its
// own, on the caller's goroutine, and returns once a replica applied it,
// the request timeout passes, or the store closes. Calls of many
// goroutines are in the log's pipeline at once.
//
// Why overlapping calls are safe — the log position, not the moment of
// proposing, fixes the one serial order every replica executes:
//  1. Each client call blocks until its command applies, so a goroutine
//     never has two calls in flight at once: its writes reach the log in
//     program order. (A call that gave up with ErrTimeout has an unknown
//     outcome and may still apply later, as in any replicated log.)
//  2. Calls of different goroutines whose entries are unapplied together
//     overlap in time, so they are concurrent and may linearize in either
//     log order; a call that starts after another returned is proposed
//     after that one applied, at a higher index.
//  3. An entry lost to leadership churn and re-proposed may land after a
//     later entry, or twice; both orders are covered by 2, and per-request
//     dedup in the state machine keeps every command exactly-once.
//
// The wait is event-driven (the reply channel vs. a clock timer), every
// wait capped at the call's one deadline. A re-proposal after proposeWait
// covers an entry lost to leadership churn. An entry that did not apply in
// proposeWait is not proposed again to the same leader in the same term —
// it is in that log, and a second copy commits no sooner — but the trouble
// is reported (dropLeader wakes an idle cluster) and the loop looks every
// retryPause for the successor the majority elects, so a leader cut off in
// an idle spell costs its proposeWait and one election, not two.
func (s *Store) propose(cmd command) (result, error) {
	if s.closed.Load() {
		return result{}, ErrClosed
	}
	cmd.ReqID, cmd.Floor = s.beginRequest()
	defer s.endRequest(cmd.ReqID)
	payload := cmd.encode()
	reply := s.replies.get()
	s.putWaiter(cmd.ReqID, reply)

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
		if res, ok := s.awaitReply(reply, min(wait, deadline.Sub(s.clk.Now()))); ok {
			s.replies.put(reply)
			return res, nil
		}
		if !s.closed.Load() {
			s.dropLeader()
		}
	}
	// Out of time. A call that takes its waiter back has a channel nothing
	// will send into; otherwise an applier has it and sends its result.
	if _, ok := s.takeWaiter(cmd.ReqID); !ok {
		res := <-reply
		s.replies.put(reply)
		return res, nil
	}
	s.replies.put(reply)
	if s.closed.Load() {
		return result{}, ErrClosed
	}
	return result{}, ErrTimeout
}

// awaitReply waits up to wait for a call's result.
func (s *Store) awaitReply(reply chan result, wait time.Duration) (result, bool) {
	t := clock.AcquireTimer(s.clk, wait)
	defer clock.ReleaseTimer(t)
	select {
	case res := <-reply:
		return res, true
	case <-t.C():
	case <-s.stopCh:
	}
	return result{}, false
}

// beginRequest numbers one client call, marks it in flight and returns
// its ID with the floor the call carries; endRequest ends it.
func (s *Store) beginRequest() (id, floor uint64) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	s.reqSeq++
	s.inflight[s.reqSeq] = struct{}{}
	return s.reqSeq, s.reqFloor
}

// endRequest retires a call's ID — its entry will not be proposed again —
// and raises the floor past every ID no longer in flight.
func (s *Store) endRequest(id uint64) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	delete(s.inflight, id)
	for s.reqFloor <= s.reqSeq {
		if _, busy := s.inflight[s.reqFloor]; busy {
			break
		}
		s.reqFloor++
	}
}
