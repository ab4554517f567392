package main

import (
	"time"

	"repro/internal/clock"
)

// A span is one interval the harness observed: workload → phase → op.
// Start and End are wall-clock offsets from the recorder's origin;
// VStart and VEnd are the same interval on the system's virtual clock.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	VStart time.Duration `json:"vstart_ns"`
	VEnd   time.Duration `json:"vend_ns"`
}

func (s span) wall() time.Duration    { return s.End - s.Start }
func (s span) virtual() time.Duration { return s.VEnd - s.VStart }

// stopwatch reads the wall clock (clock.NewReal, the only wall-time
// source the harness uses) and the system-under-test's virtual clock as
// offsets from one origin.
type stopwatch struct {
	real   clock.Real
	sim    clock.Clock
	origin time.Time
	vzero  time.Time
}

func newStopwatch() *stopwatch {
	real := clock.NewReal()
	return &stopwatch{real: real, origin: real.Now()}
}

// attach points the stopwatch at the system's virtual clock once set-up
// has built it; virtual offsets read 0 until then.
func (w *stopwatch) attach(sim clock.Clock) { w.sim, w.vzero = sim, sim.Now() }

func (w *stopwatch) wall() time.Duration { return w.real.Since(w.origin) }

func (w *stopwatch) virtual() time.Duration {
	if w.sim == nil {
		return 0
	}
	return w.sim.Since(w.vzero)
}

// opLog collects the op spans of one client goroutine. It is filled
// without locks (one writer) into storage sized before the timed phase,
// so recording an op costs two clock reads and a slot write whether or
// not the run is traced.
type opLog struct {
	parent int
	spans  []span
}

func newOpLog(parent, capacity int) *opLog {
	return &opLog{parent: parent, spans: make([]span, 0, capacity)}
}

// time runs fn as one op span and returns what fn returned.
func (l *opLog) time(w *stopwatch, name string, fn func() error) error {
	s := span{Parent: l.parent, Name: name, Start: w.wall(), VStart: w.virtual()}
	err := fn()
	s.End, s.VEnd = w.wall(), w.virtual()
	l.spans = append(l.spans, s)
	return err
}

// spanTree is the whole run's spans: phases opened by the main
// goroutine, op logs merged in by it when their clients have finished.
// Only the main goroutine touches it.
type spanTree struct {
	spans []span
}

// open starts a phase span under parent and returns its id.
func (t *spanTree) open(w *stopwatch, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: w.wall(), VStart: w.virtual()})
	return id
}

func (t *spanTree) close(w *stopwatch, id int) span {
	s := &t.spans[id-1]
	s.End, s.VEnd = w.wall(), w.virtual()
	return *s
}

// merge appends a finished client's op spans, assigning their ids.
func (t *spanTree) merge(l *opLog) {
	for _, s := range l.spans {
		s.ID = len(t.spans) + 1
		t.spans = append(t.spans, s)
	}
}

// named returns the spans with the given name, in recording order.
func (t *spanTree) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func wallsOf(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.wall()
	}
	return out
}

func virtualsOf(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.virtual()
	}
	return out
}
