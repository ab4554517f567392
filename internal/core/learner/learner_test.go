package learner

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
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
	clk := clock.NewSim()
	return newTestDepsOn(t, clk), clk
}

// newTestDepsOn builds the learner's dependencies on clk, which the test
// closes when it ends.
func newTestDepsOn(t *testing.T, clk *clock.Sim) *core.Deps {
	t.Helper()
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	cluster := kube.NewCluster(kube.Config{Clock: clk},
		kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
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

func smallManifest() *manifest.Manifest {
	return &manifest.Manifest{
		Name: "t", Framework: "tensorflow", Model: "resnet50",
		Learners: 1, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
		DatasetImages: 640,
		TrainingData:  manifest.DataRef{Bucket: "data", Key: "train.rec", AccessKey: "ak", SecretKey: "sk"},
		Results:       manifest.DataRef{Bucket: "results", AccessKey: "ak", SecretKey: "sk"},
	}
}

func TestVolumePathsDistinctPerLearner(t *testing.T) {
	paths := func(l int) []string {
		return []string{StatusPath(l), LogPath(l), ProgressPath(l), MetricsPath(l)}
	}
	seen := map[string]bool{}
	for _, l := range []int{0, 1, 7} {
		for _, p := range paths(l) {
			if seen[p] {
				t.Fatalf("path %q collides", p)
			}
			seen[p] = true
		}
	}
}

func TestTrainingConfigInterconnect(t *testing.T) {
	m := smallManifest()
	// Single-learner jobs synchronize over the host link (PCIe).
	cfg := TrainingConfig(m, gpu.K80)
	if cfg.Interconnect != gpu.K80.HostLink {
		t.Fatalf("1-learner interconnect = %v, want host link", cfg.Interconnect)
	}
	if cfg.NumGPUs != 1 {
		t.Fatalf("NumGPUs = %d", cfg.NumGPUs)
	}
	// Distributed jobs ride the datacenter network.
	m.Learners = 4
	cfg = TrainingConfig(m, gpu.K80)
	if cfg.Interconnect != netsim.Ethernet1G {
		t.Fatalf("4-learner interconnect = %v, want 1GbE", cfg.Interconnect)
	}
	if cfg.NumGPUs != 4 {
		t.Fatalf("NumGPUs = %d", cfg.NumGPUs)
	}
}

func TestContainerSpecImage(t *testing.T) {
	d, _ := newTestDeps(t)
	spec := ContainerSpec(Params{Deps: d, JobID: "j", Manifest: smallManifest(), VolumeName: "v", GPU: gpu.K80})
	if !strings.HasPrefix(spec.Image, "tensorflow") {
		t.Fatalf("image = %q, want framework image", spec.Image)
	}
	// Heavy framework images dominate learner restart latency (Fig. 4:
	// learners are the slowest component to recover).
	if spec.StartDelay < 5*time.Second {
		t.Fatalf("start delay = %v, implausibly fast for a DL framework image", spec.StartDelay)
	}
}

func TestLatestCheckpoint(t *testing.T) {
	d, _ := newTestDeps(t)
	m := smallManifest()
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	if got := latestCheckpoint(d, m, creds, "j1"); got != 0 {
		t.Fatalf("no checkpoints -> %d, want 0", got)
	}
	for _, images := range []int64{3200, 12800, 6400} {
		key := checkpointPrefix("j1") + padImages(images)
		if err := d.ObjectStore.PutSynthetic("results", key, 10, creds); err != nil {
			t.Fatal(err)
		}
	}
	// Another job's checkpoints must not leak in.
	if err := d.ObjectStore.PutSynthetic("results", checkpointPrefix("j2")+padImages(99999), 10, creds); err != nil {
		t.Fatal(err)
	}
	if got := latestCheckpoint(d, m, creds, "j1"); got != 12800 {
		t.Fatalf("latest = %d, want 12800", got)
	}
}

func padImages(n int64) string {
	s := "000000000000"
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return s[:12-len(digits)] + digits
}

// runLearnerPod stages buckets/volume per stage flags, runs one learner
// container in a pod, and returns its exit-file code.
func runLearnerPod(t *testing.T, d *core.Deps, clk *clock.Sim, m *manifest.Manifest, stageData bool) int {
	t.Helper()
	vol := startLearnerPod(t, d, m, stageData)
	deadline := clk.Now().Add(6 * time.Hour)
	for clk.Now().Before(deadline) {
		if code, ok := vol.ReadExitCode(nfs.ExitCodePath(0)); ok {
			_ = d.Kube.DeletePod("learner-pod-0")
			return code
		}
		clk.Sleep(5 * time.Second)
	}
	t.Fatal("learner never wrote an exit code")
	return -1
}

// startLearnerPod stages buckets/volume per stage flags and creates the
// pod "learner-pod-0", learner 0 of job "j" on volume "vol-j".
func startLearnerPod(t *testing.T, d *core.Deps, m *manifest.Manifest, stageData bool) *nfs.Volume {
	t.Helper()
	vol, err := d.NFS.Provision("vol-j")
	if err != nil {
		t.Fatal(err)
	}
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if stageData {
		if err := d.ObjectStore.CreateBucket("data", creds); err != nil {
			t.Fatal(err)
		}
		if err := d.ObjectStore.PutSynthetic("data", "train.rec", 64<<20, creds); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	spec := kube.PodSpec{
		Name:          "learner-pod-0",
		RestartPolicy: kube.RestartNever,
		GPUs:          1,
		Containers: []kube.ContainerSpec{ContainerSpec(Params{
			Deps: d, JobID: "j", Ordinal: 0, Manifest: m, VolumeName: "vol-j", GPU: gpu.K80,
		})},
	}
	if _, err := d.Kube.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	return vol
}

func TestLearnerTrainsToCompletion(t *testing.T) {
	d, clk := newTestDeps(t)
	m := smallManifest()
	code := runLearnerPod(t, d, clk, m, true)
	if code != ExitOK {
		t.Fatalf("exit code = %d, want %d", code, ExitOK)
	}
	vol, err := d.NFS.Volume("vol-j")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := vol.Read(StatusPath(0))
	if err != nil {
		t.Fatalf("reading status file: %v", err)
	}
	env, ok := events.Decode(raw)
	if !ok || env.Kind != events.KindLearnerStatus || types.LearnerStatus(env.Status) != types.LearnerCompleted {
		t.Fatalf("status envelope = %s (ok=%v), want COMPLETED", raw, ok)
	}
	logRaw, err := vol.Read(LogPath(0))
	if err != nil || !strings.Contains(string(logRaw), "training complete") {
		t.Fatalf("log missing completion marker: %v\n%s", err, logRaw)
	}
	if !vol.Exists(MetricsPath(0)) {
		t.Fatal("no training metrics written")
	}
}

func TestLearnerFailsOnMissingTrainingData(t *testing.T) {
	d, clk := newTestDeps(t)
	m := smallManifest()
	code := runLearnerPod(t, d, clk, m, false) // data bucket never staged
	if code != ExitDataError {
		t.Fatalf("exit code = %d, want %d (data error)", code, ExitDataError)
	}
}

func TestLearnerFailsOOMOnOversizedBatch(t *testing.T) {
	d, clk := newTestDeps(t)
	m := smallManifest()
	m.Model = "vgg16"
	m.BatchPerGPU = 64 // activations exceed the K80's 12GB
	code := runLearnerPod(t, d, clk, m, true)
	if code != ExitOOM {
		t.Fatalf("exit code = %d, want %d (OOM)", code, ExitOOM)
	}
}
