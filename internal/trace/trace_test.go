package trace

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
)

func newSim(t *testing.T) *clock.Sim {
	t.Helper()
	sim := clock.NewSim()
	t.Cleanup(sim.Close)
	return sim
}

func TestDeterministicIDs(t *testing.T) {
	root := JobRoot("job-000001")
	if !root.Valid() {
		t.Fatal("root context invalid")
	}
	if root != JobRoot("job-000001") {
		t.Fatal("JobRoot not deterministic")
	}
	if root == JobRoot("job-000002") {
		t.Fatal("distinct jobs share a root")
	}

	build := func() []SpanID {
		r := NewRecorder(clock.NewSim())
		rt := r.Root("job-000001")
		var ids []SpanID
		for i := 0; i < 3; i++ {
			a := r.StartSpan(rt.Context(), "attempt")
			ids = append(ids, a.Context().SpanID)
			c := r.StartSpan(a.Context(), "train")
			ids = append(ids, c.Context().SpanID)
		}
		return ids
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: ids differ across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	seen := map[SpanID]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate span id %v", id)
		}
		seen[id] = true
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan(JobRoot("j"), "x")
	if sp != nil {
		t.Fatal("nil recorder must return nil span")
	}
	// All of these must not panic.
	sp.SetAttr("k", "v")
	sp.SetPhase(PhaseTrain)
	sp.Event("e")
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span context must be invalid")
	}
	if r.Tree("j") != nil {
		t.Fatal("nil recorder tree must be nil")
	}
	if r.Root("j") != nil {
		t.Fatal("nil recorder root must be nil")
	}
	// Invalid parent also yields a nil span.
	r2 := NewRecorder(clock.NewSim())
	if r2.StartSpan(SpanContext{}, "x") != nil {
		t.Fatal("invalid parent must yield nil span")
	}
}

func TestRootIdempotentAndEndOnce(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	a := r.Root("job-1")
	sim.Sleep(time.Second)
	b := r.Root("job-1")
	if a.Context() != b.Context() {
		t.Fatal("Root not idempotent")
	}
	a.End()
	first := r.Tree("job-1").Root.End
	sim.Sleep(time.Minute)
	b.End() // must not move the end time
	if got := r.Tree("job-1").Root.End; !got.Equal(first) {
		t.Fatalf("End not idempotent: %v -> %v", first, got)
	}
}

func TestTreeStructureAndOrdering(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	root := r.Root("job-1")
	a1 := r.StartSpan(root.Context(), "learner-0")
	sim.Sleep(2 * time.Second)
	tr := r.StartSpan(a1.Context(), "train")
	tr.SetPhase(PhaseTrain)
	sim.Sleep(10 * time.Second)
	tr.End()
	a1.End()
	a2 := r.StartSpan(root.Context(), "learner-0") // re-parented restart
	sim.Sleep(3 * time.Second)
	a2.End()
	root.End()

	tree := r.Tree("job-1")
	if tree == nil || tree.Root == nil {
		t.Fatal("no tree")
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans = %d", len(tree.Orphans))
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(tree.Root.Children))
	}
	if tree.Root.Children[0].SpanID == tree.Root.Children[1].SpanID {
		t.Fatal("sibling spans share an id")
	}
	if !tree.Root.Children[0].Start.Before(tree.Root.Children[1].Start) {
		t.Fatal("children not start-ordered")
	}
	if len(tree.Root.Children[0].Children) != 1 {
		t.Fatal("nested child lost")
	}
	if _, err := json.Marshal(tree); err != nil {
		t.Fatalf("tree not marshalable: %v", err)
	}
}

func TestCriticalPathSumsToMakespan(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	root := r.Root("job-1")

	q := r.StartSpan(root.Context(), "gang-wait")
	q.SetPhase(PhaseQueue)
	sim.Sleep(5 * time.Second)
	q.End()

	a := r.StartSpan(root.Context(), "learner-0")
	tr := r.StartSpan(a.Context(), "train")
	tr.SetPhase(PhaseTrain)
	sim.Sleep(20 * time.Second)
	// Nested stall inside training: deeper span wins the overlap.
	st := r.StartSpanAt(a.Context(), "nfs-stall", sim.Now().Add(-4*time.Second))
	st.SetPhase(PhaseStall)
	st.End()
	tr.End()
	a.End()
	sim.Sleep(2 * time.Second) // unattributed tail -> control
	root.End()

	att := CriticalPath(r.Tree("job-1"))
	var sum time.Duration
	for _, p := range att.Phases {
		sum += p.Cost
	}
	if sum != att.Total {
		t.Fatalf("phase costs sum to %s, want makespan %s", sum, att.Total)
	}
	if att.Total != 27*time.Second {
		t.Fatalf("makespan = %s, want 27s", att.Total)
	}
	if got := att.Phase(PhaseQueue); got != 5*time.Second {
		t.Fatalf("queue = %s, want 5s", got)
	}
	// Stall is nested deeper than train at the same instants only when
	// depth differs; here both are children of the attempt, so the
	// later-started stall span wins its 4s overlap.
	if got := att.Phase(PhaseStall); got != 4*time.Second {
		t.Fatalf("stall = %s, want 4s", got)
	}
	if got := att.Phase(PhaseTrain); got != 16*time.Second {
		t.Fatalf("train = %s, want 16s", got)
	}
	if got := att.Phase(PhaseControl); got != 2*time.Second {
		t.Fatalf("control = %s, want 2s", got)
	}
	if att.Recovery != 4*time.Second {
		t.Fatalf("recovery cost = %s, want 4s (the stall)", att.Recovery)
	}
}

func TestCriticalPathUnendedSpansClamp(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	root := r.Root("job-1")
	w := r.StartSpan(root.Context(), "wedged")
	w.SetPhase(PhaseStall)
	sim.Sleep(30 * time.Second)
	root.Event("deadline") // latest timestamp defines the horizon
	// Neither the wedge span nor the root ever end.
	att := CriticalPath(r.Tree("job-1"))
	if att.Total != 30*time.Second {
		t.Fatalf("total = %s, want 30s", att.Total)
	}
	if got := att.Phase(PhaseStall); got != 30*time.Second {
		t.Fatalf("stall = %s, want 30s", got)
	}
}

func TestContextPropagation(t *testing.T) {
	sc := JobRoot("job-9")
	ctx := NewContext(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context must not carry a span")
	}
	if NewContext(context.Background(), SpanContext{}) != context.Background() {
		t.Fatal("invalid context must not be attached")
	}
}

func TestSpanIDWireForm(t *testing.T) {
	id := JobRoot("job-1").SpanID
	if s := id.String(); len(s) != 16 {
		t.Fatalf("wire form %q is not 16 hex digits", s)
	} else if v, err := strconv.ParseUint(s, 16, 64); err != nil || SpanID(v) != id {
		t.Fatal("span id does not round-trip through wire form")
	}
}

func TestFormatters(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	root := r.Root("job-1")
	tr := r.StartSpan(root.Context(), "train")
	tr.SetPhase(PhaseTrain)
	sim.Sleep(time.Second)
	tr.End()
	root.End()
	tree := r.Tree("job-1")
	if s := FormatTree(tree); s == "" {
		t.Fatal("empty tree format")
	}
	if s := FormatAttribution(CriticalPath(tree)); s == "" {
		t.Fatal("empty attribution format")
	}
	if FormatTree(nil) == "" || FormatAttribution(Attribution{}) == "" {
		t.Fatal("nil formats must still render")
	}
}

// TestSpanRecordAllocs bounds the hot path: StartSpan+SetPhase+End on a
// warm trace. The recorder is on every rpc call and learner chunk, so a
// span record must stay a handful of small allocations (span struct,
// map entry, attr map) — no encoding, no I/O, no unbounded growth.
func TestSpanRecordAllocs(t *testing.T) {
	sim := newSim(t)
	r := NewRecorder(sim)
	root := r.Root("job-alloc")
	defer root.End()
	parent := root.Context()

	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(parent, "chunk")
		sp.SetPhase(PhaseTrain)
		sp.End()
	})
	// Observed ~7 allocs/span; 12 leaves headroom for map growth without
	// letting an accidental encode/format slip onto the hot path.
	if allocs > 12 {
		t.Fatalf("span record = %.1f allocs, want <= 12", allocs)
	}
}
