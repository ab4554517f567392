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

// TestBeginDeployAttempt: an attempt within the budget is counted and
// announced as DEPLOYING in one write; one past it is counted and changes
// nothing else, and the FAILED transition the Guardian then makes lands.
func TestBeginDeployAttempt(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-1")
	writes := d.Jobs().Writes
	for want := 1; want <= 2; want++ {
		before := writes()
		got, err := d.BeginDeployAttempt("job-1", 2)
		if err != nil || got != want {
			t.Fatalf("attempt %d: BeginDeployAttempt = (%d, %v)", want, got, err)
		}
		if n := writes() - before; n != 1 {
			t.Fatalf("attempt %d took %d MongoDB writes, want 1", want, n)
		}
	}
	rec, hist, _ := d.JobHistory(context.Background(), "job-1")
	if rec.State != types.StateDeploying || rec.DeployAttempts != 2 {
		t.Fatalf("after two attempts: state %s, attempts %d; want DEPLOYING, 2", rec.State, rec.DeployAttempts)
	}
	// QUEUED, then the first attempt's DEPLOYING: the second finds the job
	// DEPLOYING already and only refreshes it.
	if len(hist) != 2 || hist[1].State != types.StateDeploying || hist[1].Note != "attempt 1" {
		t.Fatalf("history %+v, want submitted then DEPLOYING \"attempt 1\"", hist)
	}

	got, err := d.BeginDeployAttempt("job-1", 2)
	if err != nil || got != 3 {
		t.Fatalf("over budget: BeginDeployAttempt = (%d, %v), want (3, nil)", got, err)
	}
	updated := rec.UpdatedAt
	rec, after, _ := d.JobHistory(context.Background(), "job-1")
	if rec.DeployAttempts != 3 || rec.State != types.StateDeploying || len(after) != len(hist) || !rec.UpdatedAt.Equal(updated) {
		t.Fatalf("over budget: attempts %d, %d history events, updated %v; want the count bumped and nothing else", rec.DeployAttempts, len(after), rec.UpdatedAt)
	}
	if _, err := d.TransitionJob("job-1", types.StateFailed, "deployment failed after 2 attempts"); err != nil {
		t.Fatalf("failing the job after the budget: %v", err)
	}

	// A transition the state machine refuses still counts.
	newQueuedJob(t, d, "job-2")
	for _, to := range []types.JobState{types.StateDeploying, types.StateStoring} {
		if _, err := d.TransitionJob("job-2", to, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := d.BeginDeployAttempt("job-2", 3); !errors.Is(err, ErrBadTransition) || got != 1 {
		t.Fatalf("from STORING: BeginDeployAttempt = (%d, %v), want (1, ErrBadTransition)", got, err)
	}
	if rec, _ := d.GetJob(context.Background(), "job-2"); rec.DeployAttempts != 1 || rec.State != types.StateStoring {
		t.Fatalf("from STORING: attempts %d, state %s; want 1, STORING", rec.DeployAttempts, rec.State)
	}
	if _, err := d.BeginDeployAttempt("job-9", 3); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("missing job: err %v, want ErrJobNotFound", err)
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
