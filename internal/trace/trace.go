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
	"hash/fnv"
	"sort"
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
func (id SpanID) String() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
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

// Span is one recorded span and its own handle: the recorder keeps the
// *Span it hands out, so recording a span allocates the record alone. A
// nil Span (from a nil Recorder or an invalid parent) no-ops on every
// method.
type Span struct {
	rec     *Recorder
	ctx     SpanContext
	parent  SpanID
	sibling int // index among the trace's spans with this parent and name
	name    string
	start   time.Time
	end     time.Time
	ended   bool
	phase   string // the AttrPhase attribute, kept out of attrs: most spans have no other
	attrs   []attr
	events  []SpanEvent
}

// attr is one attribute; a span has at most a few, so a slice scan is
// the lookup.
type attr struct{ key, value string }

// Recorder collects spans across all traces. It is safe for
// concurrent use; its mutex is a leaf lock (no recorder method calls
// out while holding it).
type Recorder struct {
	clk    clock.Clock
	mu     sync.Mutex
	traces map[TraceID][]*Span // each trace's spans in insertion order
}

// NewRecorder returns a Recorder timing spans on clk.
func NewRecorder(clk clock.Clock) *Recorder {
	return &Recorder{clk: clk, traces: make(map[TraceID][]*Span)}
}

// find returns the span of spans with ID id, or nil.
func find(spans []*Span, id SpanID) *Span {
	for _, s := range spans {
		if s.ctx.SpanID == id {
			return s
		}
	}
	return nil
}

// add appends s to spans, its trace's spans. A trace's first span sizes
// the slice for a fleet job's trace (≈ 15 spans), so that one grows it
// at most once.
func (r *Recorder) add(spans []*Span, s *Span) {
	if spans == nil {
		spans = make([]*Span, 0, 16)
	}
	r.traces[s.ctx.TraceID] = append(spans, s)
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
	// The sibling index is one past that of the trace's latest span with
	// the same parent and name, found by scanning back from the newest: a
	// repeated span finds its predecessor at once.
	spans := r.traces[parent.TraceID]
	sibling := 0
	for i := len(spans) - 1; i >= 0; i-- {
		if s := spans[i]; s.parent == parent.SpanID && s.name == name {
			sibling = s.sibling + 1
			break
		}
	}
	s := &Span{
		rec:     r,
		ctx:     SpanContext{TraceID: parent.TraceID, SpanID: hashSpanID(parent.TraceID, parent.SpanID, name, sibling)},
		parent:  parent.SpanID,
		sibling: sibling,
		name:    name,
		start:   start,
	}
	r.add(spans, s)
	return s
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
	spans := r.traces[rc.TraceID]
	if s := find(spans, rc.SpanID); s != nil {
		return s
	}
	s := &Span{rec: r, ctx: rc, name: "job", start: start}
	r.add(spans, s)
	return s
}

// Lookup returns an already-recorded span, or nil.
func (r *Recorder) Lookup(sc SpanContext) *Span {
	if r == nil || !sc.Valid() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return find(r.traces[sc.TraceID], sc.SpanID)
}

// Context returns the span's propagatable context (zero if nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr sets a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if key == AttrPhase {
		s.phase = value
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	if s.attrs == nil {
		s.attrs = make([]attr, 0, 2)
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// SetPhase tags the span with a critical-path phase (see PhaseXxx
// constants). Spans without a phase attribute never win critical-path
// attribution; their time falls to an ancestor or to "control".
func (s *Span) SetPhase(phase string) { s.SetAttr(AttrPhase, phase) }

// Event records a point-in-time annotation at the current virtual time.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.EventAt(name, s.rec.clk.Now())
}

// EventAt records an annotation with an explicit timestamp.
func (s *Span) EventAt(name string, at time.Time) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	s.events = append(s.events, SpanEvent{Name: name, Time: at})
}

// End marks the span finished at the current virtual time. Idempotent:
// only the first End (or EndAt) sticks.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.rec.clk.Now())
}

// EndAt is End with an explicit end time.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = at
}

// Ended reports whether the span has been ended.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.ended
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
	spans := r.traces[root.TraceID]
	if len(spans) == 0 {
		r.mu.Unlock()
		return nil
	}
	data := make(map[SpanID]*SpanData, len(spans))
	list := make([]*SpanData, len(spans))
	for i, s := range spans {
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
			for _, a := range s.attrs {
				sd.Attrs[a.key] = a.value
			}
			if s.phase != "" {
				sd.Attrs[AttrPhase] = s.phase
			}
			sd.Phase = s.phase
		}
		if len(s.events) > 0 {
			sd.Events = append([]SpanEvent(nil), s.events...)
		}
		data[s.ctx.SpanID] = sd
		list[i] = sd
	}
	r.mu.Unlock()

	// A span's context and parent never change once recorded, so spans
	// is read without the lock from here on.
	tree := &Tree{TraceID: string(root.TraceID)}
	for i, sd := range list {
		if spans[i].ctx.SpanID == root.SpanID {
			tree.Root = sd
			continue
		}
		if parent, ok := data[spans[i].parent]; ok {
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
