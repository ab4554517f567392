package etcd

// Test knobs and the single-key CAS: only tests drive these, so they live
// with the tests. Production writes go through Put, Delete and Txn.

import (
	"errors"
	"fmt"
	"time"
)

// ErrCASFailed indicates the compare-and-swap precondition failed.
var ErrCASFailed = errors.New("etcd: compare failed")

// SetNodeDelay adds extra one-way latency to every raft message
// addressed to node id (a slow follower); non-positive d removes it.
func (s *Store) SetNodeDelay(id int, d time.Duration) {
	s.cluster.Transport().SetNodeDelay(id, d)
}

// SetCompactEvery overrides the per-node log-compaction threshold
// (entries applied between snapshots).
func (s *Store) SetCompactEvery(n int) {
	if n > 0 {
		s.compactEvery.Store(int64(n))
	}
}

// SkewNodeClock offsets raft node id's local clock readings by d (0
// heals it) — the fault the lease-safety tests drive. Timers are unaffected: real skew shifts the values a
// node reads, not the rate its timers fire at, which is exactly what
// makes a skewed leader's lease deadline dangerous.
func (s *Store) SkewNodeClock(id int, d time.Duration) {
	s.cluster.SetClockSkew(id, d)
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
