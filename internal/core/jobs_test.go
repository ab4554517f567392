package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/core/types"
	"repro/internal/mongo"
)

func newTestDeps(t *testing.T) *Deps {
	t.Helper()
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	return &Deps{Clock: clk, Mongo: mongo.New(clk)}
}

func newQueuedJob(t *testing.T, d *Deps, id string) types.JobRecord {
	t.Helper()
	rec := types.JobRecord{
		ID:          id,
		Tenant:      "t1",
		State:       types.StateQueued,
		Manifest:    "{}",
		SubmittedAt: d.Clock.Now(),
		UpdatedAt:   d.Clock.Now(),
	}
	if err := d.InsertJob(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestNextJobIDUnique(t *testing.T) {
	d := newTestDeps(t)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := d.NextJobID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestInsertAndGetJob(t *testing.T) {
	d := newTestDeps(t)
	want := newQueuedJob(t, d, "job-1")
	got, err := d.GetJob(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.State != want.State || got.Tenant != want.Tenant {
		t.Fatalf("got %+v", got)
	}
	if !got.SubmittedAt.Equal(want.SubmittedAt) {
		t.Fatalf("submitted_at = %v, want %v", got.SubmittedAt, want.SubmittedAt)
	}
}

func TestGetMissingJob(t *testing.T) {
	d := newTestDeps(t)
	if _, err := d.GetJob(context.Background(), "nope"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("err = %v, want ErrJobNotFound", err)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	err := d.InsertJob(types.JobRecord{ID: "job-1", State: types.StateQueued})
	if err == nil {
		t.Fatal("duplicate job accepted")
	}
}

func TestTransitionHappyPath(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	for _, to := range []types.JobState{
		types.StateDeploying, types.StateProcessing, types.StateStoring, types.StateCompleted,
	} {
		rec, err := d.TransitionJob("job-1", to, "step")
		if err != nil {
			t.Fatalf("to %s: %v", to, err)
		}
		if rec.State != to {
			t.Fatalf("state = %s, want %s", rec.State, to)
		}
	}
	_, hist, err := d.JobHistory(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 { // submitted + 4 transitions
		t.Fatalf("history = %v", hist)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Time.Before(hist[i-1].Time) {
			t.Fatal("history timestamps not monotone")
		}
	}
}

func TestIllegalTransitionRejected(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	if _, err := d.TransitionJob("job-1", types.StateCompleted, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("err = %v, want ErrBadTransition", err)
	}
}

func TestTerminalStateNotOverwritten(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	if _, err := d.TransitionJob("job-1", types.StateHalted, "user"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransitionJob("job-1", types.StateDeploying, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("err = %v, want ErrBadTransition", err)
	}
	rec, _ := d.GetJob(context.Background(), "job-1")
	if rec.State != types.StateHalted {
		t.Fatalf("state = %s", rec.State)
	}
}

func TestSameStateRefreshIsNoop(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	if _, err := d.TransitionJob("job-1", types.StateDeploying, "a1"); err != nil {
		t.Fatal(err)
	}
	_, before, _ := d.JobHistory(context.Background(), "job-1")
	if _, err := d.TransitionJob("job-1", types.StateDeploying, "a1 again"); err != nil {
		t.Fatal(err)
	}
	_, after, _ := d.JobHistory(context.Background(), "job-1")
	if len(after) != len(before) {
		t.Fatalf("refresh appended history: %d -> %d", len(before), len(after))
	}
}

func TestIncrementDeployAttempts(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	for want := 1; want <= 3; want++ {
		got, err := d.IncrementDeployAttempts("job-1")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("attempts = %d, want %d", got, want)
		}
	}
	rec, _ := d.GetJob(context.Background(), "job-1")
	if rec.DeployAttempts != 3 {
		t.Fatalf("record attempts = %d", rec.DeployAttempts)
	}
}

func TestListJobsByTenant(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	newQueuedJob(t, d, "job-2")
	if err := d.InsertJob(types.JobRecord{
		ID: "job-3", Tenant: "other", State: types.StateQueued,
		SubmittedAt: d.Clock.Now(), UpdatedAt: d.Clock.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	t1, err := d.ListJobs("t1")
	if err != nil || len(t1) != 2 {
		t.Fatalf("t1 jobs = %d (%v)", len(t1), err)
	}
	all, err := d.ListJobs("")
	if err != nil || len(all) != 3 {
		t.Fatalf("all jobs = %d (%v)", len(all), err)
	}
}

func TestTransitionWhileMongoDown(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	d.Mongo.SetDown(true)
	if _, err := d.TransitionJob("job-1", types.StateDeploying, ""); err == nil {
		t.Fatal("transition succeeded with mongo down")
	}
	d.Mongo.SetDown(false)
	if _, err := d.TransitionJob("job-1", types.StateDeploying, ""); err != nil {
		t.Fatal(err)
	}
}
