package etcd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
)

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
			if sm.eng.Snapshot() < rev {
				continue
			}
			if f := sm.eng.ResumeFloor(); best == nil || f < bestFloor {
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
