// Package trace is a deterministic span recorder for the simulated
// platform. Spans are timed on internal/clock (virtual cluster time)
// and identified by content-derived IDs: a span's ID is a hash of its
// trace ID, parent span ID, name, and per-(parent,name) sibling index.
// Two runs of the same seeded simulation therefore produce
// byte-identical span trees — traces are reproducible artifacts, not
// best-effort samples.
//
// The root span of a job's trace has a fixed, derivable context
// (JobRoot), so any component that knows the job ID can attach spans
// to the trace without explicit propagation. This is what keeps one
// job one trace across crash, eviction, and redeploy: a restarted
// learner re-parents its new attempt span under the same root.
//
// All APIs are nil-safe: a nil *Recorder returns nil *Span handles
// whose methods no-op, so call sites need no tracing-enabled guards.
package trace

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
)

// TraceID identifies one trace. Job traces use the job ID directly.
type TraceID string

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the span ID as fixed-width hex (the wire form used
// in envelopes and JSON exports).
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseSpanID parses the hex form produced by SpanID.String. Returns
// 0 for anything unparsable (treated as "no span").
func ParseSpanID(s string) SpanID {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return SpanID(v)
}

// SpanContext is the propagatable reference to a span: enough to
// parent new spans under it from another process.
type SpanContext struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"`
}

// Valid reports whether the context references a real span.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != 0 }

func hashSpanID(trace TraceID, parent SpanID, name string, sibling int) SpanID {
	h := fnv.New64a()
	h.Write([]byte(trace))
	h.Write([]byte{0})
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(parent) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	h.Write([]byte{0})
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(sibling) >> (8 * i))
	}
	h.Write(buf[:])
	id := SpanID(h.Sum64())
	if id == 0 {
		id = 1
	}
	return id
}

// JobRoot returns the deterministic root span context for a job's
// trace. Any component holding the job ID can parent spans here
// without propagation, which is how traces survive crash/redeploy.
func JobRoot(jobID string) SpanContext {
	t := TraceID(jobID)
	return SpanContext{TraceID: t, SpanID: hashSpanID(t, 0, "job", 0)}
}

// SpanEvent is a point-in-time annotation on a span.
type SpanEvent struct {
	Name string    `json:"name"`
	Time time.Time `json:"time"`
}

type span struct {
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	end    time.Time
	ended  bool
	phase  string // the AttrPhase attribute, kept out of attrs: most spans have no other
	attrs  map[string]string
	events []SpanEvent
}

type sibKey struct {
	parent SpanID
	name   string
}

type traceState struct {
	spans    map[SpanID]*span
	order    []SpanID // insertion order, for deterministic export ties
	siblings map[sibKey]int
}

// Recorder collects spans across all traces. It is safe for
// concurrent use; its mutex is a leaf lock (no recorder method calls
// out while holding it).
type Recorder struct {
	clk    clock.Clock
	mu     sync.Mutex
	traces map[TraceID]*traceState
}

// NewRecorder returns a Recorder timing spans on clk.
func NewRecorder(clk clock.Clock) *Recorder {
	return &Recorder{clk: clk, traces: make(map[TraceID]*traceState)}
}

// Span is a handle to a recorded span. A nil Span (from a nil
// Recorder or an invalid parent) no-ops on every method.
type Span struct {
	rec  *Recorder
	data *span
}

func (r *Recorder) state(t TraceID) *traceState {
	ts := r.traces[t]
	if ts == nil {
		ts = &traceState{spans: make(map[SpanID]*span), siblings: make(map[sibKey]int)}
		r.traces[t] = ts
	}
	return ts
}

func (r *Recorder) startLocked(ts *traceState, trace TraceID, parent SpanID, name string, start time.Time) *span {
	k := sibKey{parent: parent, name: name}
	idx := ts.siblings[k]
	ts.siblings[k] = idx + 1
	s := &span{
		ctx:    SpanContext{TraceID: trace, SpanID: hashSpanID(trace, parent, name, idx)},
		parent: parent,
		name:   name,
		start:  start,
	}
	ts.spans[s.ctx.SpanID] = s
	ts.order = append(ts.order, s.ctx.SpanID)
	return s
}

// StartSpan starts a child span of parent named name at the current
// virtual time. Returns nil if the recorder is nil or parent invalid.
func (r *Recorder) StartSpan(parent SpanContext, name string) *Span {
	if r == nil {
		return nil
	}
	return r.StartSpanAt(parent, name, r.clk.Now())
}

// StartSpanAt is StartSpan with an explicit (possibly retroactive)
// start time — used to record work measured after the fact, like an
// NFS stall detected by comparing expected and actual chunk duration.
func (r *Recorder) StartSpanAt(parent SpanContext, name string, start time.Time) *Span {
	if r == nil || !parent.Valid() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.state(parent.TraceID)
	s := r.startLocked(ts, parent.TraceID, parent.SpanID, name, start)
	return &Span{rec: r, data: s}
}

// Root returns the root span of jobID's trace, creating it (started
// now) if it does not exist yet. Creation is idempotent: the root has
// a fixed ID, so concurrent callers converge on one span.
func (r *Recorder) Root(jobID string) *Span {
	if r == nil {
		return nil
	}
	return r.RootAt(jobID, r.clk.Now())
}

// RootAt is Root with an explicit start time for the create case.
func (r *Recorder) RootAt(jobID string, start time.Time) *Span {
	if r == nil {
		return nil
	}
	rc := JobRoot(jobID)
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.state(rc.TraceID)
	if s, ok := ts.spans[rc.SpanID]; ok {
		return &Span{rec: r, data: s}
	}
	s := &span{ctx: rc, name: "job", start: start}
	ts.spans[rc.SpanID] = s
	ts.order = append(ts.order, rc.SpanID)
	ts.siblings[sibKey{parent: 0, name: "job"}] = 1
	return &Span{rec: r, data: s}
}

// Lookup returns a handle to an already-recorded span, or nil.
func (r *Recorder) Lookup(sc SpanContext) *Span {
	if r == nil || !sc.Valid() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.traces[sc.TraceID]
	if ts == nil {
		return nil
	}
	s := ts.spans[sc.SpanID]
	if s == nil {
		return nil
	}
	return &Span{rec: r, data: s}
}

// Context returns the span's propagatable context (zero if nil).
func (s *Span) Context() SpanContext {
	if s == nil || s.data == nil {
		return SpanContext{}
	}
	return s.data.ctx
}

// SetAttr sets a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if key == AttrPhase {
		s.data.phase = value
		return
	}
	if s.data.attrs == nil {
		s.data.attrs = make(map[string]string)
	}
	s.data.attrs[key] = value
}

// SetPhase tags the span with a critical-path phase (see PhaseXxx
// constants). Spans without a phase attribute never win critical-path
// attribution; their time falls to an ancestor or to "control".
func (s *Span) SetPhase(phase string) { s.SetAttr(AttrPhase, phase) }

// Event records a point-in-time annotation at the current virtual time.
func (s *Span) Event(name string) {
	if s == nil || s.rec == nil {
		return
	}
	s.EventAt(name, s.rec.clk.Now())
}

// EventAt records an annotation with an explicit timestamp.
func (s *Span) EventAt(name string, at time.Time) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	s.data.events = append(s.data.events, SpanEvent{Name: name, Time: at})
}

// End marks the span finished at the current virtual time. Idempotent:
// only the first End (or EndAt) sticks.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	s.EndAt(s.rec.clk.Now())
}

// EndAt is End with an explicit end time.
func (s *Span) EndAt(at time.Time) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.data.ended {
		return
	}
	s.data.ended = true
	s.data.end = at
}

// Ended reports whether the span has been ended.
func (s *Span) Ended() bool {
	if s == nil || s.rec == nil {
		return false
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.data.ended
}

// ---- context propagation ----

type ctxKey struct{}

// NewContext returns ctx carrying sc for downstream RPC spans.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts a span context placed by NewContext.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// ---- export ----

// SpanData is the exported (immutable snapshot) form of a span.
type SpanData struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_span_id,omitempty"`
	Name     string            `json:"name"`
	Phase    string            `json:"phase,omitempty"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end,omitempty"` // zero: never ended
	Ended    bool              `json:"ended"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []SpanEvent       `json:"events,omitempty"`
	Children []*SpanData       `json:"children,omitempty"`
}

// Duration is End-Start, clamping an unended span to clamp.
func (d *SpanData) Duration(clamp time.Time) time.Duration {
	end := d.End
	if !d.Ended {
		end = clamp
	}
	if end.Before(d.Start) {
		return 0
	}
	return end.Sub(d.Start)
}

// Tree is one trace exported as a span tree. Orphans are spans whose
// parent was never recorded (should not happen for job traces).
type Tree struct {
	TraceID string      `json:"trace_id"`
	Root    *SpanData   `json:"root,omitempty"`
	Orphans []*SpanData `json:"orphans,omitempty"`
}

// Tree snapshots jobID's trace as a span tree with deterministically
// ordered children (start time, then name, then span ID). Returns nil
// if the trace has no spans.
func (r *Recorder) Tree(jobID string) *Tree {
	if r == nil {
		return nil
	}
	root := JobRoot(jobID)
	r.mu.Lock()
	ts := r.traces[root.TraceID]
	if ts == nil || len(ts.spans) == 0 {
		r.mu.Unlock()
		return nil
	}
	data := make(map[SpanID]*SpanData, len(ts.spans))
	order := append([]SpanID(nil), ts.order...)
	for _, id := range order {
		s := ts.spans[id]
		sd := &SpanData{
			TraceID: string(s.ctx.TraceID),
			SpanID:  s.ctx.SpanID.String(),
			Name:    s.name,
			Start:   s.start,
			End:     s.end,
			Ended:   s.ended,
		}
		if s.parent != 0 {
			sd.ParentID = s.parent.String()
		}
		if len(s.attrs) > 0 || s.phase != "" {
			sd.Attrs = make(map[string]string, len(s.attrs)+1)
			for k, v := range s.attrs {
				sd.Attrs[k] = v
			}
			if s.phase != "" {
				sd.Attrs[AttrPhase] = s.phase
			}
			sd.Phase = s.phase
		}
		if len(s.events) > 0 {
			sd.Events = append([]SpanEvent(nil), s.events...)
		}
		data[id] = sd
	}
	parents := make(map[SpanID]SpanID, len(ts.spans))
	for _, id := range order {
		parents[id] = ts.spans[id].parent
	}
	r.mu.Unlock()

	tree := &Tree{TraceID: string(root.TraceID)}
	for _, id := range order {
		sd := data[id]
		p := parents[id]
		if id == root.SpanID {
			tree.Root = sd
			continue
		}
		if parent, ok := data[p]; ok {
			parent.Children = append(parent.Children, sd)
		} else {
			tree.Orphans = append(tree.Orphans, sd)
		}
	}
	sortChildren := func(list []*SpanData) {
		sort.SliceStable(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if !a.Start.Equal(b.Start) {
				return a.Start.Before(b.Start)
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			return a.SpanID < b.SpanID
		})
	}
	var walk func(sd *SpanData)
	walk = func(sd *SpanData) {
		sortChildren(sd.Children)
		for _, c := range sd.Children {
			walk(c)
		}
	}
	if tree.Root != nil {
		walk(tree.Root)
	}
	sortChildren(tree.Orphans)
	for _, o := range tree.Orphans {
		walk(o)
	}
	return tree
}
