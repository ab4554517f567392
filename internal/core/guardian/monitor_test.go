package guardian

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/helper"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/events"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/metrics"
	"repro/internal/mongo"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/rpc"
)

func newTestDeps(t *testing.T) (*core.Deps, *clock.Sim) {
	t.Helper()
	return newTestDepsGrace(t, 0)
}

// newTestDepsGrace is newTestDeps on a cluster whose evictions give the
// owner grace to checkpoint and ack.
func newTestDepsGrace(t *testing.T, grace time.Duration) (*core.Deps, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	cluster := kube.NewCluster(kube.Config{Clock: clk, EvictionGracePeriod: grace}, kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	store := etcd.New(1, clk)
	t.Cleanup(func() {
		cluster.Stop()
		store.Close()
		clk.Close()
	})
	return &core.Deps{
		Clock:       clk,
		Bus:         rpc.NewBus(clk),
		Kube:        cluster,
		Etcd:        store,
		Mongo:       mongo.New(clk),
		ObjectStore: objectstore.New(clk, link),
		NFS:         nfs.NewServer(clk),
		DataLink:    link,
		DefaultGPU:  gpu.K80,
		Metrics:     metrics.NewRegistry(),
	}, clk
}

// insertJob stages a one-learner job's dataset and results bucket and
// records the job in state.
func insertJob(t *testing.T, d *core.Deps, state types.JobState) Params {
	t.Helper()
	m := &manifest.Manifest{
		Name: "t", Framework: "tensorflow", Model: "resnet50",
		Learners: 1, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
		DatasetImages: 640,
		TrainingData:  manifest.DataRef{Bucket: "data", Key: "train.rec", AccessKey: "ak", SecretKey: "sk"},
		Results:       manifest.DataRef{Bucket: "results", AccessKey: "ak", SecretKey: "sk"},
	}
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	for _, err := range []error{
		d.ObjectStore.CreateBucket("data", creds),
		d.ObjectStore.PutSynthetic("data", "train.rec", 64<<20, creds),
		d.ObjectStore.CreateBucket("results", creds),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	now := d.Clock.Now()
	rec := types.JobRecord{ID: d.NextJobID(), Tenant: "tenant", State: state, Manifest: raw, SubmittedAt: now, UpdatedAt: now}
	if err := d.InsertJob(rec); err != nil {
		t.Fatal(err)
	}
	return Params{Deps: d, JobID: rec.ID, Manifest: m}
}

// runGuardian runs a Guardian for p.JobID in a pod of its own and waits
// until the job is terminal.
func runGuardian(t *testing.T, p Params, clk *clock.Sim) types.JobState {
	t.Helper()
	d := p.Deps
	if _, err := d.Kube.CreatePod(kube.PodSpec{
		Name:          KubeJobName(p.JobID),
		RestartPolicy: kube.RestartNever,
		Containers:    []kube.ContainerSpec{ContainerSpec(p)},
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := clk.Now().Add(time.Hour); clk.Now().Before(deadline); clk.Sleep(time.Second) {
		if rec, err := d.GetJob(context.Background(), p.JobID); err == nil && rec.State.Terminal() {
			return rec.State
		}
	}
	rec, _ := d.GetJob(context.Background(), p.JobID)
	t.Fatalf("job %s still %s after an hour", p.JobID, rec.State)
	return ""
}

// TestFreshDeployReadsItsJournalOnce: a Guardian that deploys a job hands
// the journal it wrote to its monitor. The one etcd Get of a fresh job is
// Run's look for a predecessor's journal.
func TestFreshDeployReadsItsJournalOnce(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateQueued)
	gets := d.Etcd.OpCounts()["get"]
	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED", state)
	}
	if n := d.Etcd.OpCounts()["get"] - gets; n != 1 {
		t.Fatalf("%d etcd Gets from deploy to COMPLETED, want 1: the monitor read back the journal deploy had just written", n)
	}
}

// TestRestartedMonitorResumesFromJournal: a Guardian started over a
// deployed journal, as a restarted one is, resumes the monitor's watch
// after the journal's MonitorRev from the journal's statuses. The store
// says learner 0 is TRAINING at that revision and the journal says it
// COMPLETED: only a monitor that trusts the journal, and neither re-lists
// nor replays what the journal covers, completes the job.
func TestRestartedMonitorResumesFromJournal(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateProcessing)
	at := d.Clock.Now()
	raw, err := events.LearnerStatus(p.JobID, types.StatusUpdate{Learner: 0, Status: types.LearnerTraining, Time: at}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	rev, err := d.Etcd.Put(types.LearnerStatusKey(p.JobID, 0), string(raw))
	if err != nil {
		t.Fatal(err)
	}
	saveJournal(d, types.GuardianJournalKey(p.JobID), &journal{
		Deployed: true, Steps: []string{"volume", "helper", "gang", "learners", "netpol"}, MonitorRev: rev,
		Statuses: map[int]types.StatusUpdate{0: {Learner: 0, Status: types.LearnerCompleted, Time: at}},
	})
	vol, err := d.NFS.Provision(VolumeName(p.JobID))
	if err != nil {
		t.Fatal(err)
	}
	vol.Write(helper.ResultsStoredMarker, []byte("ok"))

	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED from the journal's statuses", state)
	}
	if n := d.Metrics.Counter("guardian_monitor_resumes"); n != 1 {
		t.Errorf("guardian_monitor_resumes = %v, want 1", n)
	}
	if n := d.Metrics.Counter("guardian_monitor_relists"); n != 0 {
		t.Errorf("guardian_monitor_relists = %v, want 0", n)
	}
}

// TestRestartedMonitorResumesFromOldCursor: the journal's cursor is where
// the monitor first folded, not where it last did. A Guardian restarted
// over a cursor at STARTING's revision, with TRAINING and COMPLETED
// committed since, resumes its watch there — no relist — folds both from
// the store's backfill, completes the job, and records each state once.
func TestRestartedMonitorResumesFromOldCursor(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateProcessing)
	put := func(s types.LearnerStatus) (uint64, types.StatusUpdate) {
		u := types.StatusUpdate{Learner: 0, Status: s, Time: d.Clock.Now()}
		raw, err := events.LearnerStatus(p.JobID, u).Encode()
		if err != nil {
			t.Fatal(err)
		}
		rev, err := d.Etcd.Put(types.LearnerStatusKey(p.JobID, 0), string(raw))
		if err != nil {
			t.Fatal(err)
		}
		return rev, u
	}
	rev, starting := put(types.LearnerStarting)
	saveJournal(d, types.GuardianJournalKey(p.JobID), &journal{
		Deployed: true, Steps: []string{"volume", "helper", "gang", "learners", "netpol"}, MonitorRev: rev,
		Statuses: map[int]types.StatusUpdate{0: starting},
	})
	put(types.LearnerTraining)
	put(types.LearnerCompleted)
	vol, err := d.NFS.Provision(VolumeName(p.JobID))
	if err != nil {
		t.Fatal(err)
	}
	vol.Write(helper.ResultsStoredMarker, []byte("ok"))

	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED from the backfilled events", state)
	}
	if n := d.Metrics.Counter("guardian_monitor_resumes"); n != 1 {
		t.Errorf("guardian_monitor_resumes = %v, want 1", n)
	}
	if n := d.Metrics.Counter("guardian_monitor_relists"); n != 0 {
		t.Errorf("guardian_monitor_relists = %v, want 0", n)
	}
	_, hist, err := d.JobHistory(context.Background(), p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[types.JobState]bool{}
	for _, ev := range hist {
		if seen[ev.State] {
			t.Fatalf("history records %s twice: %+v", ev.State, hist)
		}
		seen[ev.State] = true
	}
}

// TestRestartedMonitorJournalsCursorAfterCompaction: a journaled cursor
// the store holds no history for any more is re-listed from, and the
// cursor the re-list yields is journaled in its place, so a later
// restart can resume instead of re-listing again.
func TestRestartedMonitorJournalsCursorAfterCompaction(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateProcessing)
	key := types.GuardianJournalKey(p.JobID)
	put := func(s types.LearnerStatus) uint64 {
		raw, err := events.LearnerStatus(p.JobID, types.StatusUpdate{Learner: 0, Status: s, Time: d.Clock.Now()}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		rev, err := d.Etcd.Put(types.LearnerStatusKey(p.JobID, 0), string(raw))
		if err != nil {
			t.Fatal(err)
		}
		return rev
	}
	rev := put(types.LearnerStarting)
	saveJournal(d, key, &journal{Deployed: true, MonitorRev: rev})
	// More versions of one key than the store keeps lift its resume
	// floor, which is engine-wide, past the journal's cursor.
	for i := 0; i < 40; i++ {
		if _, err := d.Etcd.Put("/elsewhere", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	put(types.LearnerCompleted)
	vol, err := d.NFS.Provision(VolumeName(p.JobID))
	if err != nil {
		t.Fatal(err)
	}
	vol.Write(helper.ResultsStoredMarker, []byte("ok"))
	seen := recordEvents(t, d.Etcd, key)

	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED from the re-list", state)
	}
	if n := d.Metrics.Counter("guardian_monitor_resume_compacted"); n != 1 {
		t.Fatalf("guardian_monitor_resume_compacted = %v, want 1: the test did not compact past the cursor", n)
	}
	evs := awaitEvents(clk, seen, func(evs []etcd.Event) bool { return len(evs) > 0 })
	if len(evs) == 0 || evs[0].Type != etcd.EventPut || decodeJournal(evs[0].Value).MonitorRev <= rev {
		t.Fatalf("journal events %+v, want a Put of a cursor past %d first", evs, rev)
	}
}
