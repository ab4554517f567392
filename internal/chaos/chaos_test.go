package chaos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/kube"
)

// newTestCluster is a bare two-node cluster on an auto-advancing clock,
// with the one thing a booted platform always has beside it: a heartbeat
// (etcd's idle cadence, 500 ms) that nobody reads. Without it a
// measurement's own deadline can be the only event pending, and a kubelet
// whose thread the kernel took off the CPU for longer than the clock's
// quiet span would see the clock jump straight to it; with it the jump is
// at most one beat, and the kubelet has a quiet span per beat to get back.
func newTestCluster(t *testing.T) (*kube.Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	c := kube.NewCluster(kube.Config{Clock: clk},
		kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		kube.NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	heartbeat := clk.NewTicker(500 * time.Millisecond)
	t.Cleanup(func() {
		c.Stop()
		heartbeat.Stop()
		clk.Close()
	})
	return c, clk
}

func deployService(t *testing.T, c *kube.Cluster, clk *clock.Sim, app string, start time.Duration) {
	t.Helper()
	tmpl := kube.PodSpec{
		Labels:        map[string]string{"app": app},
		RestartPolicy: kube.RestartAlways,
		Containers:    []kube.ContainerSpec{{Name: "srv", StartDelay: start}},
	}
	if _, err := c.CreateDeployment(app, 1, tmpl); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(time.Minute)
	for clk.Now().Before(deadline) {
		pods := c.Pods(map[string]string{"app": app})
		if len(pods) == 1 && pods[0].Phase() == kube.PodRunning {
			return
		}
		clk.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("service %s never came up", app)
}

func TestMeasurePodRecovery(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", 2*time.Second)
	inj := New(c)
	rec, err := inj.MeasurePodRecovery(map[string]string{"app": "svc"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// schedule+create+start ≈ 2.5-3.5s with jitter.
	if rec < time.Second || rec > 10*time.Second {
		t.Fatalf("recovery = %v, want 1-10s", rec)
	}
}

func TestMeasurePodRecoveryNoTarget(t *testing.T) {
	c, _ := newTestCluster(t)
	inj := New(c)
	_, err := inj.MeasurePodRecovery(map[string]string{"app": "ghost"}, time.Second)
	if !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", err)
	}
}

func TestMeasureContainerRecovery(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", 500*time.Millisecond)
	pod := c.Pods(map[string]string{"app": "svc"})[0]
	inj := New(c)
	rec, err := inj.MeasureContainerRecovery(pod.Name(), "srv", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// In-place restart: just the process start delay (first restart has
	// no backoff).
	if rec < 100*time.Millisecond || rec > 5*time.Second {
		t.Fatalf("container recovery = %v", rec)
	}
}

func TestSampleCollectsN(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", time.Second)
	inj := New(c)
	samples, err := inj.Sample(3, 2*time.Second, func() (time.Duration, error) {
		return inj.MeasurePodRecovery(map[string]string{"app": "svc"}, time.Minute)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	lo, hi := MinMax(samples)
	if lo <= 0 || hi < lo {
		t.Fatalf("range = %v-%v", lo, hi)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	lo, hi := MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range = %v-%v", lo, hi)
	}
}

// TestNodeCrashAndRestartHelpers: CrashNodeOf takes down the node under
// a running pod, and HealAll restarts it.
func TestNodeCrashAndRestartHelpers(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", 100*time.Millisecond)
	inj := New(c)
	name, err := inj.CrashNodeOf(map[string]string{"app": "svc"})
	if err != nil {
		t.Fatal(err)
	}
	down := func() bool {
		for _, n := range c.Nodes() {
			if n.Spec.Name == name {
				return n.Down()
			}
		}
		t.Fatalf("no node %q", name)
		return false
	}
	if !down() {
		t.Fatal("node not down after CrashNodeOf")
	}
	inj.HealAll()
	if down() {
		t.Fatal("node down after HealAll")
	}
}
