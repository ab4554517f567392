package etcd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrLeaseExpired indicates a keep-alive or attach raced lease expiry.
var ErrLeaseExpired = errors.New("etcd: lease expired")

// Lease is a TTL-bound liveness handle: keys attached to it are deleted
// when the lease expires without a keep-alive — etcd's standard
// mechanism for failure detection, used here to let components publish
// presence that vanishes when they crash.
type Lease struct {
	store *Store
	id    string
	ttl   time.Duration

	mu       sync.Mutex
	keys     map[string]bool
	expired  bool
	deadline time.Time
	timer    interface {
		Stop() bool
		Reset(time.Duration)
	}
}

// GrantLease creates a lease with the given TTL. The lease must be kept
// alive with KeepAlive or it expires, deleting every attached key.
func (s *Store) GrantLease(ttl time.Duration) (*Lease, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("etcd: lease ttl must be positive, got %v", ttl)
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	id := fmt.Sprintf("lease-%d", s.leaseSeq.Add(1))

	l := &Lease{
		store:    s,
		id:       id,
		ttl:      ttl,
		keys:     make(map[string]bool),
		deadline: s.clk.Now().Add(ttl),
	}
	l.timer = s.clk.AfterFunc(ttl, func() { l.expire(false) })
	return l, nil
}

// ID returns the lease identity.
func (l *Lease) ID() string { return l.id }

// PutWithLease stores key=value attached to the lease: the key is
// deleted automatically when the lease expires.
func (l *Lease) Put(key, value string) error {
	l.mu.Lock()
	if l.expired {
		l.mu.Unlock()
		return fmt.Errorf("put %q: %w", key, ErrLeaseExpired)
	}
	l.keys[key] = true
	l.mu.Unlock()
	if _, err := l.store.Put(key, value); err != nil {
		return err
	}
	return nil
}

// KeepAlive extends the lease by its TTL. It fails if the lease already
// expired — the caller must re-establish its presence from scratch, as
// a recovered component would.
func (l *Lease) KeepAlive() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.expired {
		return ErrLeaseExpired
	}
	l.timer.Stop()
	l.timer.Reset(l.ttl)
	// The deadline is what an in-flight expiry re-checks: a timer
	// goroutine spawned at the old deadline must not kill a lease whose
	// owner renewed at the same instant.
	l.deadline = l.store.clk.Now().Add(l.ttl)
	return nil
}

// Revoke expires the lease immediately, deleting attached keys.
func (l *Lease) Revoke() {
	l.expire(true)
}

// Expired reports whether the lease has expired.
func (l *Lease) Expired() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expired
}

// expire deletes every attached key through the replicated log. force
// distinguishes Revoke (always expires) from the timer path, which
// yields to a keep-alive that re-armed the lease after this expiry was
// already in flight.
func (l *Lease) expire(force bool) {
	l.mu.Lock()
	if l.expired {
		l.mu.Unlock()
		return
	}
	if !force && l.store.clk.Now().Before(l.deadline) {
		// Lost the race against KeepAlive: the re-armed timer owns the
		// next expiry.
		l.mu.Unlock()
		return
	}
	l.expired = true
	l.timer.Stop()
	keys := make([]string, 0, len(l.keys))
	for k := range l.keys {
		keys = append(keys, k)
	}
	// Deterministic delete order: each Delete is its own revision, so
	// the watch-visible event sequence must not depend on map order.
	sort.Strings(keys)
	l.mu.Unlock()

	for _, k := range keys {
		_ = l.store.Delete(k) // best effort: store may be closing
	}
}
