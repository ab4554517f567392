package etcd

import (
	"time"

	"repro/internal/clock"
	"repro/internal/raft"
	"repro/internal/store"
)

// readIndexRead is every linearizable read's path, with no log entry:
// obtain a read index from the leader (a live check-quorum lease answers
// it for free; otherwise ReadIndex confirms leadership with a quorum
// heartbeat round that concurrent reads share, so a deposed leader can
// never answer), wait for the replica of the node that answered to apply
// through it, and return that replica's engine for the caller to read
// its local MVCC snapshot. That node is the leader, whose own log commits
// every entry through the index, unless no leader was known and a
// follower forwarded the round. A replica that crashed, or did not catch
// up within readIndexWait, sends the read back for a fresh index.
func (s *Store) readIndexRead() (*store.EngineOf[string], error) {
	deadline := s.clk.Now().Add(s.timeout)
	for {
		if s.closed.Load() {
			return nil, ErrClosed
		}
		if node := s.readNode(); node != nil {
			idx, err := node.ReadIndex(readIndexWait)
			if err == nil {
				wait := min(readIndexWait, deadline.Sub(s.clk.Now()))
				if eng, ok := s.waitApplied(node.ID(), idx, wait); ok {
					return eng, nil
				}
			} else {
				// No leader, deposed mid-round, or no quorum answered:
				// retry against whoever leads next.
				s.dropLeader()
			}
		}
		s.clk.Sleep(retryPause)
		if !s.clk.Now().Before(deadline) {
			return nil, ErrTimeout
		}
	}
}

// serializableRead picks the freshest live replica's engine to read
// locally, no leadership round: bounded staleness, never wrongness, and
// it stays available when the cluster has no quorum. Among equally fresh
// replicas the lowest ID serves.
func (s *Store) serializableRead() (*store.EngineOf[string], error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var best *store.EngineOf[string]
	s.mu.Lock()
	for _, id := range s.ids {
		if sm := s.sms[id]; sm != nil && (best == nil || sm.eng.Snapshot() > best.Snapshot()) {
			best = sm.eng
		}
	}
	s.mu.Unlock()
	if best == nil {
		return nil, ErrTimeout // every replica crashed
	}
	return best, nil
}

// waitApplied waits up to wait for node id's replica to apply the log
// through idx, and returns the engine that got there. A replica already
// there answers at once, with no waiter and no timer. A crashed node
// answers nothing, and neither does a replica that a snapshot install
// replaced mid-wait: the old engine's floor stops.
func (s *Store) waitApplied(id int, idx uint64, wait time.Duration) (*store.EngineOf[string], bool) {
	s.mu.Lock()
	sm := s.sms[id]
	s.mu.Unlock()
	if sm == nil {
		return nil, false
	}
	if sm.eng.Snapshot() >= idx {
		return sm.eng, true
	}
	ch, cancelWait := sm.eng.WaitApplied(idx)
	t := clock.AcquireTimer(s.clk, wait)
	defer clock.ReleaseTimer(t)
	select {
	case <-ch:
		return sm.eng, true
	case <-t.C():
	case <-s.stopCh:
	}
	cancelWait()
	return nil, false
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
