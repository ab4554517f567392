package lcm

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/core"
	"repro/internal/core/guardian"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/etcd"
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
	clk := clock.NewSim()
	return newTestDepsOn(t, clk), clk
}

func newTestDepsOn(t *testing.T, clk *clock.Sim) *core.Deps {
	t.Helper()
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	cluster := kube.NewCluster(kube.Config{Clock: clk},
		kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		kube.NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
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
	}
}

// insertJob records a job in the given state and returns its ID.
func insertJob(t *testing.T, d *core.Deps, state types.JobState) string {
	t.Helper()
	rec := jobRecord(t, d, state)
	if err := d.InsertJob(rec); err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

// jobRecord builds a record of a job in the given state.
func jobRecord(t *testing.T, d *core.Deps, state types.JobState) types.JobRecord {
	t.Helper()
	m := manifest.Manifest{
		Name: "t", Framework: "tensorflow", Model: "resnet50",
		Learners: 1, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
		DatasetImages: 1000,
		TrainingData:  manifest.DataRef{Bucket: "data", Key: "k", AccessKey: "ak", SecretKey: "sk"},
		Results:       manifest.DataRef{Bucket: "results", AccessKey: "ak", SecretKey: "sk"},
	}
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	now := d.Clock.Now()
	return types.JobRecord{
		ID: d.NextJobID(), Tenant: "tenant", State: state, Manifest: raw,
		SubmittedAt: now, UpdatedAt: now,
	}
}

func TestDeployCreatesGuardianJobIdempotently(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	id := insertJob(t, d, types.StateQueued)

	resp, err := s.deploy(id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.GuardianJob != guardian.KubeJobName(id) {
		t.Fatalf("guardian job = %q", resp.GuardianJob)
	}
	kj := d.Kube.JobByName(guardian.KubeJobName(id))
	if kj == nil {
		t.Fatal("guardian kube Job not created")
	}
	// A second deploy finds the existing Job instead of duplicating it.
	if _, err := s.deploy(id); err != nil {
		t.Fatal(err)
	}
	if got := d.Kube.JobByName(guardian.KubeJobName(id)); got != kj {
		t.Fatal("deploy is not idempotent")
	}
}

// TestConcurrentDeploysCreateOneGuardian runs the two deploy calls every
// job gets — the API's submit RPC and the jobs feed's QUEUED insert — at
// once, on a manual clock, so that both would be past the Guardian Job
// lookup before either created it. Both succeed and one Guardian exists.
func TestConcurrentDeploysCreateOneGuardian(t *testing.T) {
	clk := clock.NewManual()
	d := newTestDepsOn(t, clk)
	s := New(d)
	rec := jobRecord(t, d, types.StateQueued)
	inserted := make(chan error, 1)
	go func() { inserted <- d.InsertJob(rec) }()
	clocktest.Run(clk, time.Second)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	id := rec.ID

	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := s.deploy(id)
			errs <- err
		}()
	}
	clocktest.Run(clk, time.Second)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("deploy: %v", err)
		}
	}
	if d.Kube.JobByName(guardian.KubeJobName(id)) == nil {
		t.Fatal("guardian kube Job not created")
	}
	if pods := d.Kube.Pods(map[string]string{"app": "dlaas-guardian", "job": id}); len(pods) != 1 {
		t.Fatalf("%d guardian pods, want 1", len(pods))
	}
}

func TestDeployUnknownJobFails(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	if _, err := s.deploy("job-000404"); err == nil {
		t.Fatal("deploy of unknown job succeeded")
	}
}

func TestDeployCorruptManifestFailsJob(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	id := d.NextJobID()
	now := d.Clock.Now()
	if err := d.InsertJob(types.JobRecord{
		ID: id, Tenant: "x", State: types.StateQueued, Manifest: "{corrupt",
		SubmittedAt: now, UpdatedAt: now,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.deploy(id); err == nil {
		t.Fatal("corrupt manifest deployed")
	}
	rec, err := d.GetJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != types.StateFailed {
		t.Fatalf("state = %s, want FAILED", rec.State)
	}
}

func TestHaltMarksJob(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	id := insertJob(t, d, types.StateQueued)
	resp, err := s.halt(id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != types.StateHalted {
		t.Fatalf("state = %s, want HALTED", resp.State)
	}
}

func TestSweepDeploysQueuedJobs(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	id := insertJob(t, d, types.StateQueued)
	s.sweepQueued()
	if d.Kube.JobByName(guardian.KubeJobName(id)) == nil {
		t.Fatal("sweep did not deploy the queued job")
	}
}

func TestGarbageCollectReapsTerminalJobResources(t *testing.T) {
	d, _ := newTestDeps(t)
	s := New(d)
	id := insertJob(t, d, types.StateQueued)
	// Simulate a Guardian that died before its own teardown: terminal
	// state in MongoDB, but volume, network policy, gang and etcd keys
	// still exist.
	if _, err := d.TransitionJob(id, types.StateFailed, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NFS.Provision(guardian.VolumeName(id)); err != nil {
		t.Fatal(err)
	}
	d.Kube.ApplyNetworkPolicy(kube.NetworkPolicy{Name: guardian.PolicyName(id)})
	if _, err := d.Kube.SubmitGang(kube.GangSpec{
		Name: guardian.GangName(id), Members: 1, GPUsPerMember: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Etcd.Put(types.GuardianJournalKey(id), "{}"); err != nil {
		t.Fatal(err)
	}

	s.garbageCollect()

	if _, err := d.NFS.Volume(guardian.VolumeName(id)); err == nil {
		t.Fatal("volume not released")
	}
	if d.Kube.GangByName(guardian.GangName(id)) != nil {
		t.Fatal("gang not cancelled")
	}
	if kvs, _ := d.Etcd.Range(types.JobPrefix(id)); len(kvs) != 0 {
		t.Fatalf("etcd keys leaked: %v", kvs)
	}
	// Non-terminal jobs are left alone.
	id2 := insertJob(t, d, types.StateQueued)
	if _, err := d.NFS.Provision(guardian.VolumeName(id2)); err != nil {
		t.Fatal(err)
	}
	s.garbageCollect()
	if _, err := d.NFS.Volume(guardian.VolumeName(id2)); err != nil {
		t.Fatal("live job's volume reaped")
	}
}
