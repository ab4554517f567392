package helper

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/learner"
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
	return newTestDepsEtcd(t, 1)
}

// newTestDepsEtcd is newTestDeps with a choice of etcd replica count, for
// tests that take quorum away.
func newTestDepsEtcd(t *testing.T, etcdReplicas int) (*core.Deps, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	return newTestDepsOn(t, clk, kube.Config{Clock: clk}, etcdReplicas), clk
}

// newTestDepsOn builds the substrates on the given clock and cluster
// configuration.
func newTestDepsOn(t *testing.T, clk *clock.Sim, cfg kube.Config, etcdReplicas int) *core.Deps {
	t.Helper()
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	cluster := kube.NewCluster(cfg, kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	store := etcd.New(etcdReplicas, clk)
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

func helperManifest(learners int) *manifest.Manifest {
	return &manifest.Manifest{
		Name: "t", Framework: "tensorflow", Model: "resnet50",
		Learners: learners, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
		DatasetImages: 640,
		TrainingData:  manifest.DataRef{Bucket: "data", Key: "train.rec", AccessKey: "ak", SecretKey: "sk"},
		Results:       manifest.DataRef{Bucket: "results", AccessKey: "ak", SecretKey: "sk"},
	}
}

// startHelperPod provisions the job volume and runs the helper pod —
// all four containers, or only the named ones.
func startHelperPod(t *testing.T, d *core.Deps, m *manifest.Manifest, only ...string) *nfs.Volume {
	t.Helper()
	vol, err := d.NFS.Provision("vol-j")
	if err != nil {
		t.Fatal(err)
	}
	spec := PodSpec(Params{Deps: d, JobID: "j", Manifest: m, VolumeName: "vol-j"})
	spec.Name = "helper-j"
	spec.Volumes = nil // the simulated containers reach the volume via Deps
	if len(only) > 0 {
		var keep []kube.ContainerSpec
		for _, cs := range spec.Containers {
			for _, name := range only {
				if cs.Name == name {
					keep = append(keep, cs)
				}
			}
		}
		spec.Containers = keep
	}
	if _, err := d.Kube.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	return vol
}

func TestPodSpecHasFourHelperContainers(t *testing.T) {
	d, _ := newTestDeps(t)
	spec := PodSpec(Params{Deps: d, JobID: "j", Manifest: helperManifest(1), VolumeName: "v"})
	want := map[string]bool{"load-data": true, "controller": true, "log-collector": true, "store-results": true}
	if len(spec.Containers) != len(want) {
		t.Fatalf("containers = %d, want %d", len(spec.Containers), len(want))
	}
	for _, cs := range spec.Containers {
		if !want[cs.Name] {
			t.Fatalf("unexpected container %q", cs.Name)
		}
	}
	if spec.Labels["job"] != "j" || spec.Tenant == "" {
		t.Fatalf("labels/tenant not stamped: %+v", spec)
	}
}

func TestCurrentLearnerStatus(t *testing.T) {
	d, _ := newTestDeps(t)
	vol, err := d.NFS.Provision("v")
	if err != nil {
		t.Fatal(err)
	}
	current := func(l int) (types.LearnerStatus, bool) {
		f := learner.FilesOf(l)
		status, _, ok := currentLearnerStatus(vol, f, statLearner(vol, f))
		return status, ok
	}
	// No files yet: unknown, and nothing was read to learn it.
	if got, ok := current(0); got != "" || !ok {
		t.Fatalf("empty volume status = (%q,%v)", got, ok)
	}
	if n := d.NFS.OpCounts()["read"]; n != 0 {
		t.Fatalf("%d reads of files Stat said are absent", n)
	}
	// Status file only.
	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining))
	if got, ok := current(0); got != types.LearnerTraining || !ok {
		t.Fatalf("status = (%q,%v), want TRAINING", got, ok)
	}
	// Exit file wins over the status file (orderly termination).
	vol.Write(nfs.ExitCodePath(0), []byte("0"))
	if got, ok := current(0); got != types.LearnerCompleted || !ok {
		t.Fatalf("status = (%q,%v), want COMPLETED after exit 0", got, ok)
	}
	vol.Write(learner.StatusPath(1), []byte(types.LearnerTraining))
	vol.Write(nfs.ExitCodePath(1), []byte("5"))
	if got, ok := current(1); got != types.LearnerFailed || !ok {
		t.Fatalf("status = (%q,%v), want FAILED after exit 5", got, ok)
	}
	// A file that exists but cannot be read (soft-mount fault) or parsed
	// makes the answer incomplete, never a silently older status.
	d.NFS.InjectFault(nfs.FaultError)
	if _, ok := current(1); ok {
		t.Fatal("status derived through an NFS fault reported complete")
	}
	d.NFS.Heal()
	vol.Write(nfs.ExitCodePath(1), []byte("not-a-number"))
	if got, ok := current(1); ok {
		t.Fatalf("malformed exit file: status = (%q,true), want incomplete", got)
	}
}

// awaitMirrored waits (virtual time) until learner l's envelope in etcd
// carries status want.
func awaitMirrored(t *testing.T, d *core.Deps, clk *clock.Sim, l int, want types.LearnerStatus, within time.Duration) {
	t.Helper()
	var last string
	deadline := clk.Now().Add(within)
	for clk.Now().Before(deadline) {
		raw, found, err := d.Etcd.Get(types.LearnerStatusKey("j", l))
		if err == nil && found {
			if env, ok := events.Decode([]byte(raw)); ok && env.Status == string(want) {
				return
			}
			last = raw
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("learner %d status %s not in etcd within %v; last value %q", l, want, within, last)
}

// TestControllerIdlePollsReadNothing pins the steady-state cost of the
// whole helper pod: once a status is mirrored and nothing is written, the
// poll loops make no NFS call at all — the passes that would only Stat
// are not run — and the first write after that is still picked up on the
// next tick of the cadence.
func TestControllerIdlePollsReadNothing(t *testing.T) {
	d, clk := newTestDeps(t)
	vol := startHelperPod(t, d, helperManifest(1))
	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining))
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, time.Minute)
	clk.Sleep(time.Second) // let the publishing poll finish its journal write

	before := d.NFS.OpCounts()
	puts := d.Etcd.OpCounts()["put"]
	clk.Sleep(time.Minute)
	after := d.NFS.OpCounts()
	for _, op := range []string{"read", "stat"} {
		if n := after[op] - before[op]; n != 0 {
			t.Errorf("%d NFS %s calls in 60 idle seconds, want 0", n, op)
		}
	}
	if n := d.Etcd.OpCounts()["put"] - puts; n != 0 {
		t.Errorf("%d etcd puts in 60 idle seconds, want 0", n)
	}
	// The saving is passes not run, not a slower cadence.
	vol.Write(learner.StatusPath(0), []byte(types.LearnerCompleted))
	awaitMirrored(t, d, clk, 0, types.LearnerCompleted, 2*controllerPoll)
}

// TestControllerSeesSameSizeRewrite is why the change test is Gen and
// not Size: consecutive status envelopes routinely have equal length.
func TestControllerSeesSameSizeRewrite(t *testing.T) {
	d, clk := newTestDeps(t)
	vol := startHelperPod(t, d, helperManifest(1))
	// Read once: the idle clock may move between two readings, and an
	// instant's digits are part of an envelope's length.
	now := clk.Now()
	envelope := func(s types.LearnerStatus) []byte {
		raw, err := events.LearnerStatus("j", types.StatusUpdate{Learner: 0, Status: s, Time: now}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first, second := envelope(types.LearnerStarting), envelope(types.LearnerTraining)
	if len(first) != len(second) {
		t.Fatalf("test premise: envelopes differ in length (%d vs %d)", len(first), len(second))
	}
	vol.Write(learner.StatusPath(0), first)
	awaitMirrored(t, d, clk, 0, types.LearnerStarting, time.Minute)
	vol.Write(learner.StatusPath(0), second)
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, 10*time.Second)
}

// TestControllerRetriesFailedPublish: a change whose etcd Put failed is
// not "handled" — the controller must keep re-reading it and publish once
// etcd is back, with no further write from the learner to prompt it.
func TestControllerRetriesFailedPublish(t *testing.T) {
	d, clk := newTestDepsEtcd(t, 3)
	vol := startHelperPod(t, d, helperManifest(1))
	vol.Write(learner.StatusPath(0), []byte(types.LearnerStarting))
	awaitMirrored(t, d, clk, 0, types.LearnerStarting, time.Minute)

	d.Etcd.CrashNode(1)
	d.Etcd.CrashNode(2)
	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining)) // the learner's only write
	deadline := clk.Now().Add(time.Minute)
	for d.Metrics.Counter("controller_status_drops", "etcd-put") == 0 {
		if !clk.Now().Before(deadline) {
			t.Fatal("controller_status_drops never rose with etcd out of quorum")
		}
		clk.Sleep(500 * time.Millisecond)
	}

	d.Etcd.RestartNode(1)
	d.Etcd.RestartNode(2)
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, time.Minute)
}

// TestControllerRetriesFaultedRead: the attribute view keeps answering
// through a soft-mount outage, so the controller sees the new Gen, fails
// the Read — and must not remember that Gen as handled.
func TestControllerRetriesFaultedRead(t *testing.T) {
	d, clk := newTestDeps(t)
	vol := startHelperPod(t, d, helperManifest(1))
	vol.Write(learner.StatusPath(0), []byte(types.LearnerStarting))
	awaitMirrored(t, d, clk, 0, types.LearnerStarting, time.Minute)
	clk.Sleep(137 * time.Millisecond) // off the controller's poll instants

	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining)) // the learner's only write
	d.NFS.InjectFault(nfs.FaultError)
	clk.Sleep(5 * time.Second) // ten polls Stat the new Gen and fail to read it
	awaitMirrored(t, d, clk, 0, types.LearnerStarting, time.Second)

	d.NFS.Heal()
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, 2*time.Second)
}

// TestControllerRestartReadsEverythingOnce: what was handled lives in
// memory only. A restarted controller reads the journal and every file
// that exists on its first poll, publishes nothing the journal already
// covers, and then goes quiet again.
func TestControllerRestartReadsEverythingOnce(t *testing.T) {
	d, clk := newTestDeps(t)
	vol := startHelperPod(t, d, helperManifest(1))
	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining))
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, time.Minute)
	clk.Sleep(time.Second)

	reads, puts := d.NFS.OpCounts()["read"], d.Etcd.OpCounts()["put"]
	if err := d.Kube.CrashContainer("helper-j", "controller"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(20 * time.Second)
	if n := d.Kube.Pod("helper-j").Restarts(); n != 1 {
		t.Fatalf("helper pod restarts = %d, want 1", n)
	}
	if n := d.NFS.OpCounts()["read"] - reads; n != 2 {
		t.Errorf("restarted controller made %d NFS reads, want 2 (journal, status file)", n)
	}
	if n := d.Etcd.OpCounts()["put"] - puts; n != 0 {
		t.Errorf("restarted controller republished: %d etcd puts, want 0", n)
	}
	// The new incarnation still mirrors what changes next.
	vol.Write(nfs.ExitCodePath(0), []byte("0"))
	awaitMirrored(t, d, clk, 0, types.LearnerCompleted, 10*time.Second)
}

func TestControllerMirrorsStatusToEtcd(t *testing.T) {
	d, clk := newTestDeps(t)
	m := helperManifest(1)
	vol := startHelperPod(t, d, m)

	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining))
	vol.Write(learner.ProgressPath(0), []byte("1280"))

	deadline := clk.Now().Add(5 * time.Minute)
	for clk.Now().Before(deadline) {
		raw, found, err := d.Etcd.Get(types.LearnerStatusKey("j", 0))
		if err == nil && found {
			if !strings.Contains(raw, string(types.LearnerTraining)) {
				t.Fatalf("etcd status = %s, want TRAINING", raw)
			}
			if !strings.Contains(raw, "images=1280") {
				t.Fatalf("etcd status lacks progress detail: %s", raw)
			}
			return
		}
		clk.Sleep(500 * time.Millisecond)
	}
	t.Fatal("controller never mirrored the learner status into etcd")
}

func TestLoadDataPublishesReadiness(t *testing.T) {
	d, clk := newTestDeps(t)
	m := helperManifest(1)
	// Stage the dataset so load-data validates successfully.
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := d.ObjectStore.CreateBucket("data", creds); err != nil {
		t.Fatal(err)
	}
	if err := d.ObjectStore.PutSynthetic("data", "train.rec", 1<<20, creds); err != nil {
		t.Fatal(err)
	}
	vol := startHelperPod(t, d, m)
	deadline := clk.Now().Add(5 * time.Minute)
	for clk.Now().Before(deadline) {
		if raw, err := vol.Read(DataReadyMarker); err == nil {
			if string(raw) != "ok" {
				t.Fatalf("data-ready marker = %q, want ok", raw)
			}
			return
		}
		clk.Sleep(500 * time.Millisecond)
	}
	t.Fatal("load-data never published the readiness marker")
}

func TestLoadDataReportsInaccessibleData(t *testing.T) {
	d, clk := newTestDeps(t)
	vol := startHelperPod(t, d, helperManifest(1)) // bucket never created
	deadline := clk.Now().Add(5 * time.Minute)
	for clk.Now().Before(deadline) {
		if raw, err := vol.Read(DataReadyMarker); err == nil {
			if !strings.HasPrefix(string(raw), "error") {
				t.Fatalf("marker = %q, want an error", raw)
			}
			return
		}
		clk.Sleep(500 * time.Millisecond)
	}
	t.Fatal("load-data never reported the inaccessible dataset")
}

func TestStoreResultsWaitsForAllLearnersThenPublishes(t *testing.T) {
	d, clk := newTestDeps(t)
	m := helperManifest(2)
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	vol := startHelperPod(t, d, m, "store-results")

	// One learner done 20s before the other: results must NOT be stored
	// yet, and the 40 polls in between read the finished learner's exit
	// file once and the unfinished learner's absent one never.
	vol.Write(nfs.ExitCodePath(0), []byte("0"))
	reads := d.NFS.OpCounts()["read"]
	clk.Sleep(20 * time.Second)
	if vol.Exists(ResultsStoredMarker) {
		t.Fatal("results stored before every learner finished")
	}
	if n := d.NFS.OpCounts()["read"] - reads; n != 1 {
		t.Fatalf("store-results made %d NFS reads while waiting, want 1", n)
	}
	// Second learner done: the model lands in the bucket and the marker
	// appears.
	vol.Write(nfs.ExitCodePath(1), []byte("0"))
	deadline := clk.Now().Add(time.Hour)
	for clk.Now().Before(deadline) {
		if raw, err := vol.Read(ResultsStoredMarker); err == nil && string(raw) == "ok" {
			keys, err := d.ObjectStore.List("results", creds)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if strings.HasPrefix(k, "models/j/") {
					return
				}
			}
			t.Fatalf("marker set but no model stored; keys = %v", keys)
		}
		clk.Sleep(time.Second)
	}
	t.Fatal("store-results never published the marker")
}

func TestLogCollectorShipsLogs(t *testing.T) {
	d, clk := newTestDeps(t)
	m := helperManifest(1)
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	vol := startHelperPod(t, d, m)
	vol.Append(learner.LogPath(0), []byte("hello from the learner\n"))

	deadline := clk.Now().Add(5 * time.Minute)
	for clk.Now().Before(deadline) {
		obj, err := d.ObjectStore.Get("results", "logs/j/learner-0.log", creds)
		if err == nil {
			if !strings.Contains(string(obj.Data), "hello from the learner") {
				t.Fatalf("shipped log = %q", obj.Data)
			}
			return
		}
		clk.Sleep(time.Second)
	}
	t.Fatal("log-collector never shipped the log")
}

// TestCorruptControllerJournalStartsFresh: a journal that is not a
// journal reads as a fresh one. json.Unmarshal fills "last" before it
// fails on "acked", and a controller that kept that part took learner 0
// as already published and never mirrored its status.
func TestCorruptControllerJournalStartsFresh(t *testing.T) {
	d, clk := newTestDeps(t)
	// Written before the controller's start delay is over.
	vol := startHelperPod(t, d, helperManifest(1), "controller")
	vol.Write(journalPath, []byte(`{"last":{"0":"TRAINING"},"acked":5}`))
	vol.Write(learner.StatusPath(0), []byte(types.LearnerTraining))
	awaitMirrored(t, d, clk, 0, types.LearnerTraining, time.Minute)
}
