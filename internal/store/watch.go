package store

import (
	"sync"

	"repro/internal/metrics"
)

// Keyed is the event shape the Hub can dispatch: anything carrying a key
// (for prefix filtering) and a revision (for ordering and dedup).
type Keyed interface {
	EventKey() string
	EventRev() uint64
}

// Hub fans events out to prefix watchers in strict revision order. It is
// the store's delivery layer, and is also used standalone by the etcd
// facade, whose replicated appliers produce the same event at the same
// revision on every node: Publish's revision cursor accepts each
// revision exactly once, whichever applier gets there first.
//
// Publishing never blocks on watcher channels: accepted events go into
// an ordered queue drained by the hub's dispatcher goroutine, which is
// the only party doing (possibly blocking) channel sends. A stalled
// watcher therefore delays other watchers' delivery, but never a
// publisher — the engine publishes under its write lock, and in the etcd
// facade that property keeps client operations live while a subscriber
// lags.
type Hub[E Keyed] struct {
	// mu guards the cursor, queue and instrumentation; held only for
	// short enqueues.
	mu        sync.Mutex
	delivered uint64 // highest accepted revision
	queue     []E    // accepted, not yet dispatched (revision order)
	mtr       *metrics.Registry
	mtrName   string

	// watchersMu guards the subscription list only; cancellation never
	// needs mu, so a blocked delivery cannot deadlock a cancel.
	watchersMu sync.RWMutex
	watchers   []*watcher[E]
	closed     bool

	wake chan struct{}
	stop chan struct{}
	once sync.Once
}

// watcher receives events for keys under its prefix.
type watcher[E Keyed] struct {
	prefix   string
	startRev uint64 // events at or below this are before the subscription
	ch       chan E
	done     chan struct{}
	once     sync.Once // guards done: cancel and hub Close may race
}

// shutdown closes the watcher's done channel exactly once, however many
// of cancel / hub Close race to do it.
func (w *watcher[E]) shutdown() { w.once.Do(func() { close(w.done) }) }

// NewHub returns an empty hub and starts its dispatcher.
func NewHub[E Keyed]() *Hub[E] {
	h := &Hub[E]{wake: make(chan struct{}, 1), stop: make(chan struct{})}
	go h.dispatchLoop()
	return h
}

// Instrument publishes the hub's queue depth as a gauge in reg under
// the given name label.
func (h *Hub[E]) Instrument(reg *metrics.Registry, name string) {
	h.mu.Lock()
	h.mtr, h.mtrName = reg, name
	h.mu.Unlock()
}

// gaugeQueueDepth records the pending-dispatch queue length; callers
// hold h.mu.
func (h *Hub[E]) gaugeQueueDepth() {
	if h.mtr != nil {
		h.mtr.SetGauge("store_hub_queue_depth", float64(len(h.queue)), h.mtrName)
	}
}

// Watch subscribes to events for keys under prefix. Delivery begins with
// the first revision accepted after the call — a write acknowledged
// before Watch returns is never replayed to the new watcher. Cancel is
// idempotent.
func (h *Hub[E]) Watch(prefix string) (<-chan E, func()) {
	ch, cancel, _ := h.WatchCursor(prefix)
	return ch, cancel
}

// WatchCursor is Watch plus the subscription's start cursor: events at
// or below the returned revision will never be delivered on the
// channel. A resuming watch (the etcd facade's WatchFrom) uses the
// cursor as the exclusive upper bound of its history backfill.
func (h *Hub[E]) WatchCursor(prefix string) (<-chan E, func(), uint64) {
	w := &watcher[E]{prefix: prefix, ch: make(chan E, 128), done: make(chan struct{})}
	h.mu.Lock()
	w.startRev = h.delivered
	h.mu.Unlock()
	h.watchersMu.Lock()
	if h.closed {
		h.watchersMu.Unlock()
		w.shutdown()
		return w.ch, func() {}, w.startRev
	}
	h.watchers = append(h.watchers, w)
	h.watchersMu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.watchersMu.Lock()
			for i, x := range h.watchers {
				if x == w {
					h.watchers = append(h.watchers[:i], h.watchers[i+1:]...)
					break
				}
			}
			h.watchersMu.Unlock()
			w.shutdown()
		})
	}
	return w.ch, cancel, w.startRev
}

// SpliceEvents returns a channel that yields backfill first, then pipes
// live events with revision > after, stopping when the returned cancel
// runs or stop closes. It is the delivery shim behind a resuming watch
// (the etcd facade's WatchFrom): backfilled history and the live stream
// appear as one ordered subscription, and the floor filter keeps the
// splice point duplicate-free.
func SpliceEvents[E Keyed](backfill []E, live <-chan E, after uint64, stop <-chan struct{}) (<-chan E, func()) {
	out := make(chan E, len(backfill)+16)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(done) }) }
	go func() {
		for _, ev := range backfill {
			select {
			case out <- ev:
			case <-done:
				return
			case <-stop:
				return
			}
		}
		for {
			select {
			case ev := <-live:
				if ev.EventRev() <= after {
					continue
				}
				select {
				case out <- ev:
				case <-done:
					return
				case <-stop:
					return
				}
			case <-done:
				return
			case <-stop:
				return
			}
		}
	}()
	return out, cancel
}

// Publish accepts events for revision rev, exactly once per revision:
// republishing an already-accepted revision is a no-op. Revisions must
// be published in nondecreasing order by each caller goroutine; the
// first publisher of a revision wins. Publish never blocks on delivery.
// The hub copies events: the caller may reuse the slice at once.
func (h *Hub[E]) Publish(rev uint64, events []E) {
	h.mu.Lock()
	if rev <= h.delivered {
		h.mu.Unlock()
		return
	}
	h.delivered = rev
	h.queue = append(h.queue, events...)
	h.gaugeQueueDepth()
	h.mu.Unlock()
	if len(events) > 0 {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// dispatchLoop is the hub's single delivering goroutine. It owns two
// buffers: the queue it drained last, which goes back under mu as the
// next queue once its events are delivered (and cleared, so delivered
// events are not kept reachable), and the watcher list it delivers to,
// refilled in place each batch.
func (h *Hub[E]) dispatchLoop() {
	var spare []E
	var targets []*watcher[E]
	for {
		select {
		case <-h.stop:
			return
		case <-h.wake:
		}
		for {
			h.mu.Lock()
			batch := h.queue
			h.queue = spare
			h.gaugeQueueDepth()
			h.mu.Unlock()
			if len(batch) == 0 {
				spare = batch
				break
			}
			h.watchersMu.RLock()
			targets = append(targets[:0], h.watchers...)
			h.watchersMu.RUnlock()
			for _, ev := range batch {
				for _, w := range targets {
					if ev.EventRev() <= w.startRev {
						continue
					}
					if !hasPrefix(ev.EventKey(), w.prefix) {
						continue
					}
					select {
					case w.ch <- ev:
					case <-w.done:
					case <-h.stop:
						return
					}
				}
			}
			clear(batch)
			clear(targets)
			spare = batch[:0]
		}
	}
}

// Watchers reports the live subscription count.
func (h *Hub[E]) Watchers() int { //lint:allow deadexport test-observation point: TestWatchCancelReclaimsCursor checks a cancelled watch is gone
	h.watchersMu.RLock()
	defer h.watchersMu.RUnlock()
	return len(h.watchers)
}

// Close cancels every watcher and stops the dispatcher; subsequent Watch
// calls return a dead subscription.
func (h *Hub[E]) Close() {
	h.watchersMu.Lock()
	ws := h.watchers
	h.watchers = nil
	h.closed = true
	h.watchersMu.Unlock()
	for _, w := range ws {
		w.shutdown()
	}
	h.once.Do(func() { close(h.stop) })
}

// hasPrefix avoids pulling strings into the hot dispatch path signature.
func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
