package kube

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

func newTestCluster(t *testing.T, nodes ...NodeSpec) (*Cluster, *clock.Sim) {
	t.Helper()
	return newTestClusterOn(t, clock.NewSim(), nodes...)
}

// newManualCluster is newTestCluster on a clock that only the test moves
// (clocktest.Run, through manual{clk}), so a test's timeline does not
// depend on how the kernel slices the run.
func newManualCluster(t *testing.T, nodes ...NodeSpec) (*Cluster, manual) {
	t.Helper()
	c, clk := newTestClusterOn(t, clock.NewManual(), nodes...)
	return c, manual{clk}
}

// manual sleeps by running a manual clock forward: every instant of the
// sleep runs to a stop before the next.
type manual struct{ *clock.Sim }

func (m manual) Sleep(d time.Duration) { clocktest.Run(m.Sim, d) }

// sleeper is the clock waitPhase polls on: a *clock.Sim that advances by
// itself, or a manual one.
type sleeper interface {
	Now() time.Time
	Sleep(time.Duration)
}

func newTestClusterOn(t *testing.T, clk *clock.Sim, nodes ...NodeSpec) (*Cluster, *clock.Sim) {
	t.Helper()
	if len(nodes) == 0 {
		nodes = []NodeSpec{
			{Name: "node-a", GPUs: 4, GPUType: "K80"},
			{Name: "node-b", GPUs: 4, GPUType: "K80"},
		}
	}
	c := NewCluster(Config{Clock: clk}, nodes...)
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

// waitPhase blocks until the named pod reaches phase ph (or test timeout).
// It looks once more after the deadline: if this goroutine is off the CPU
// for longer than the clock's quiet span, the clock may jump past the
// deadline to the pod's own next event (a sleeper's hour), and the pod
// may be in ph by then.
func waitPhase(t *testing.T, c *Cluster, clk sleeper, name string, ph PodPhase, timeout time.Duration) {
	t.Helper()
	deadline := clk.Now().Add(timeout)
	for {
		p := c.Pod(name)
		if p != nil && p.Phase() == ph {
			return
		}
		if !clk.Now().Before(deadline) {
			break
		}
		clk.Sleep(50 * time.Millisecond)
	}
	p := c.Pod(name)
	cur := PodPhase(0)
	if p != nil {
		cur = p.Phase()
	}
	t.Fatalf("pod %s did not reach %v (current %v)", name, ph, cur)
}

func sleeperSpec(name string, d time.Duration, code int) PodSpec {
	return PodSpec{
		Name:          name,
		RestartPolicy: RestartNever,
		Containers: []ContainerSpec{{
			Name:       "main",
			Image:      "test",
			StartDelay: 100 * time.Millisecond,
			Run: func(ctx *ContainerCtx) int {
				ctx.Sleep(d)
				return code
			},
		}},
	}
}

func TestPodRunsToCompletion(t *testing.T) {
	c, clk := newTestCluster(t)
	p, err := c.CreatePod(sleeperSpec("ok-pod", time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pod did not finish")
	}
	if p.Phase() != PodSucceeded {
		t.Fatalf("phase = %v, want Succeeded", p.Phase())
	}
	_ = clk
}

func TestPodFailureDetected(t *testing.T) {
	c, _ := newTestCluster(t)
	p, err := c.CreatePod(sleeperSpec("bad-pod", 100*time.Millisecond, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-p.Done()
	if p.Phase() != PodFailed {
		t.Fatalf("phase = %v, want Failed", p.Phase())
	}
	exits, code, _ := p.ExitInfo("main")
	if exits != 1 || code != 2 {
		t.Fatalf("exit info = (%d,%d)", exits, code)
	}
}

func TestDuplicatePodName(t *testing.T) {
	c, _ := newTestCluster(t)
	if _, err := c.CreatePod(sleeperSpec("dup", time.Minute, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePod(sleeperSpec("dup", time.Minute, 0)); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestGPUSchedulingCapacity runs on a manual clock: on one that advances
// by itself, a kernel time slice can let the clock jump to a pod's next
// event before the kubelet has started it.
func TestGPUSchedulingCapacity(t *testing.T) {
	c, clk := newManualCluster(t, NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"})
	spec := sleeperSpec("gpu-a", time.Hour, 0)
	spec.GPUs = 2
	if _, err := c.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "gpu-a", PodRunning, 30*time.Second)

	// Second pod cannot fit and stays Pending.
	spec2 := sleeperSpec("gpu-b", time.Hour, 0)
	spec2.GPUs = 1
	p2, err := c.CreatePod(spec2)
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(5 * time.Second)
	if p2.Phase() != PodPending {
		t.Fatalf("phase = %v, want Pending while node is full", p2.Phase())
	}
	// Free capacity: delete the first pod; the second schedules.
	if err := c.DeletePod("gpu-a"); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "gpu-b", PodRunning, 30*time.Second)
}

func TestGPUTypeConstraint(t *testing.T) {
	c, clk := newTestCluster(t,
		NodeSpec{Name: "n-k80", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n-p100", GPUs: 4, GPUType: "P100"},
	)
	spec := sleeperSpec("wants-p100", time.Hour, 0)
	spec.GPUs = 1
	spec.GPUType = "P100"
	p, err := c.CreatePod(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "wants-p100", PodRunning, 30*time.Second)
	if p.NodeName() != "n-p100" {
		t.Fatalf("scheduled on %s, want n-p100", p.NodeName())
	}
}

func TestGPUsReleasedOnCompletion(t *testing.T) {
	c, clk := newTestCluster(t, NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"})
	spec := sleeperSpec("short", 500*time.Millisecond, 0)
	spec.GPUs = 2
	p, _ := c.CreatePod(spec)
	<-p.Done()
	clk.Sleep(time.Second)
	if free := c.Nodes()[0].FreeGPUs(); free != 2 {
		t.Fatalf("free GPUs = %d, want 2", free)
	}
}

func TestRestartOnFailureRetriesUntilSuccess(t *testing.T) {
	c, _ := newTestCluster(t)
	spec := PodSpec{
		Name:          "flaky",
		RestartPolicy: RestartOnFailure,
		Containers: []ContainerSpec{{
			Name:       "main",
			StartDelay: 50 * time.Millisecond,
			Run: func(ctx *ContainerCtx) int {
				if ctx.Restart() < 2 {
					return 1 // fail twice, then succeed
				}
				return 0
			},
		}},
	}
	p, err := c.CreatePod(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("pod did not finish")
	}
	if p.Phase() != PodSucceeded {
		t.Fatalf("phase = %v, want Succeeded", p.Phase())
	}
	if p.Restarts() != 2 {
		t.Fatalf("restarts = %d, want 2", p.Restarts())
	}
}

func TestCrashContainerInPlaceRestart(t *testing.T) {
	c, clk := newTestCluster(t)
	spec := PodSpec{
		Name:          "server",
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "srv", StartDelay: 100 * time.Millisecond}},
	}
	p, err := c.CreatePod(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "server", PodRunning, 30*time.Second)
	if err := c.CrashContainer("server", "srv"); err != nil {
		t.Fatal(err)
	}
	// First restart is immediate (no CrashLoopBackOff): the process is
	// running again within ~StartDelay.
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		if _, _, running := p.ExitInfo("srv"); running && p.Restarts() == 1 {
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("container not restarted; restarts=%d", p.Restarts())
}

func TestRepeatedCrashesBackOff(t *testing.T) {
	c, clk := newTestCluster(t)
	spec := PodSpec{
		Name:          "crashloop",
		RestartPolicy: RestartAlways,
		Containers: []ContainerSpec{{
			Name:       "main",
			StartDelay: 10 * time.Millisecond,
			Run:        func(ctx *ContainerCtx) int { return 1 }, // crash instantly
		}},
	}
	p, err := c.CreatePod(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	deadline := start.Add(40 * time.Second)
	for clk.Now().Before(deadline) && p.Restarts() < 3 {
		clk.Sleep(100 * time.Millisecond)
	}
	if p.Restarts() < 3 {
		t.Fatalf("restarts = %d, want >= 3", p.Restarts())
	}
	// Three restarts require at least base+2*base = 30s of backoff.
	if elapsed := clk.Since(start); elapsed < 20*time.Second {
		t.Fatalf("crashloop restarted too fast: %v", elapsed)
	}
}

func TestDeploymentMaintainsReplicas(t *testing.T) {
	c, clk := newTestCluster(t)
	tmpl := PodSpec{
		Labels:        map[string]string{"app": "api"},
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "srv", StartDelay: 200 * time.Millisecond}},
	}
	if _, err := c.CreateDeployment("api", 2, tmpl); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, c, clk, "api", 2, 30*time.Second)

	// Kill one replica: the deployment recreates it (with a new name —
	// the victim must be fully gone, not just counted).
	victim := c.Pods(map[string]string{"app": "api"})[0].Name()
	if err := c.DeletePod(victim); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		running := 0
		victimSeen := false
		for _, p := range c.Pods(map[string]string{"app": "api"}) {
			if p.Name() == victim {
				victimSeen = true
			}
			if p.Phase() == PodRunning {
				running++
			}
		}
		if !victimSeen && running == 2 {
			return
		}
		clk.Sleep(50 * time.Millisecond)
	}
	t.Fatal("deployment did not replace the deleted replica")
}

func waitReplicas(t *testing.T, c *Cluster, clk *clock.Sim, app string, n int, timeout time.Duration) {
	t.Helper()
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		running := 0
		for _, p := range c.Pods(map[string]string{"app": app}) {
			if p.Phase() == PodRunning {
				running++
			}
		}
		if running == n {
			return
		}
		clk.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("app %s never reached %d running replicas", app, n)
}

func TestStatefulSetStableIdentity(t *testing.T) {
	c, clk := newTestCluster(t)
	tmpl := PodSpec{
		Labels:        map[string]string{"app": "learner"},
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "learn", StartDelay: 100 * time.Millisecond}},
	}
	if _, err := c.CreateStatefulSet("learner", 2, tmpl); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "learner-0", PodRunning, 30*time.Second)
	waitPhase(t, c, clk, "learner-1", PodRunning, 30*time.Second)

	// Delete ordinal 1: a pod with the SAME name must come back.
	if err := c.DeletePod("learner-1"); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "learner-1", PodRunning, 30*time.Second)
	if got := len(c.Pods(map[string]string{"app": "learner"})); got != 2 {
		t.Fatalf("live replicas = %d, want 2", got)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	c, _ := newTestCluster(t)
	j, err := c.CreateJob("guardian", 3, PodSpec{
		Containers: []ContainerSpec{{
			Name:       "main",
			StartDelay: 50 * time.Millisecond,
			Run:        func(ctx *ContainerCtx) int { return 0 },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("job did not finish")
	}
	succ, failed, attempts := j.Status()
	if !succ || failed || attempts != 1 {
		t.Fatalf("status = (%v,%v,%d)", succ, failed, attempts)
	}
}

func TestJobRetriesThenSucceeds(t *testing.T) {
	c, _ := newTestCluster(t)
	// Fails twice (one per pod attempt), then succeeds. Attempt number
	// is derivable from the pod name suffix.
	j, err := c.CreateJob("guardian", 5, PodSpec{
		Containers: []ContainerSpec{{
			Name:       "main",
			StartDelay: 20 * time.Millisecond,
			Run: func(ctx *ContainerCtx) int {
				if strings.HasSuffix(ctx.PodName(), "-a0") || strings.HasSuffix(ctx.PodName(), "-a1") {
					return 1
				}
				return 0
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	succ, failed, attempts := j.Status()
	if !succ || failed || attempts != 3 {
		t.Fatalf("status = (%v,%v,%d), want success after 3 attempts", succ, failed, attempts)
	}
}

func TestJobFailsAfterBackoffLimit(t *testing.T) {
	c, _ := newTestCluster(t)
	j, err := c.CreateJob("doomed", 2, PodSpec{
		Containers: []ContainerSpec{{
			Name:       "main",
			StartDelay: 20 * time.Millisecond,
			Run:        func(ctx *ContainerCtx) int { return 1 },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	succ, failed, attempts := j.Status()
	if succ || !failed || attempts != 3 {
		t.Fatalf("status = (%v,%v,%d), want permanent failure after 3 attempts", succ, failed, attempts)
	}
}

func TestNodeCrashReschedulesDeployment(t *testing.T) {
	c, clk := newTestCluster(t,
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	tmpl := PodSpec{
		Labels:        map[string]string{"app": "api"},
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "srv", StartDelay: 100 * time.Millisecond}},
	}
	if _, err := c.CreateDeployment("api", 1, tmpl); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, c, clk, "api", 1, 30*time.Second)
	node := c.Pods(map[string]string{"app": "api"})[0].NodeName()
	if err := c.CrashNode(node); err != nil {
		t.Fatal(err)
	}
	// A replacement must come up on the surviving node.
	deadline := clk.Now().Add(60 * time.Second)
	for clk.Now().Before(deadline) {
		pods := c.Pods(map[string]string{"app": "api"})
		if len(pods) == 1 && pods[0].Phase() == PodRunning && pods[0].NodeName() != node {
			return
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatal("replacement did not land on the surviving node")
}

func TestNodeRestartRestoresCapacity(t *testing.T) {
	c, clk := newTestCluster(t, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	if err := c.CrashNode("n1"); err != nil {
		t.Fatal(err)
	}
	spec := sleeperSpec("stuck", time.Hour, 0)
	p, _ := c.CreatePod(spec)
	clk.Sleep(2 * time.Second)
	if p.Phase() != PodPending {
		t.Fatalf("phase = %v, want Pending on dead cluster", p.Phase())
	}
	if err := c.RestartNode("n1"); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "stuck", PodRunning, 30*time.Second)
}

func TestNetworkPolicyIsolation(t *testing.T) {
	c, clk := newTestCluster(t)
	mk := func(name string, labels map[string]string) {
		spec := PodSpec{
			Name:          name,
			Labels:        labels,
			RestartPolicy: RestartAlways,
			Containers:    []ContainerSpec{{Name: "c", StartDelay: 10 * time.Millisecond}},
		}
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
		waitPhase(t, c, clk, name, PodRunning, 30*time.Second)
	}
	mk("learner-t1", map[string]string{"role": "learner", "tenant": "t1", "job": "j1"})
	mk("helper-t1", map[string]string{"role": "helper", "tenant": "t1", "job": "j1"})
	mk("learner-t2", map[string]string{"role": "learner", "tenant": "t2", "job": "j2"})
	mk("lcm", map[string]string{"role": "platform"})

	// Default allow before policies exist.
	if !c.CanConnect("learner-t2", "learner-t1") {
		t.Fatal("default should allow")
	}
	// Isolate job j1's learners: only same-job pods may connect.
	c.ApplyNetworkPolicy(NetworkPolicy{
		Name:      "isolate-j1",
		AppliesTo: map[string]string{"role": "learner", "job": "j1"},
		AllowFrom: []map[string]string{{"job": "j1"}},
	})
	if !c.CanConnect("helper-t1", "learner-t1") {
		t.Fatal("same-job helper should connect")
	}
	if c.CanConnect("learner-t2", "learner-t1") {
		t.Fatal("cross-tenant learner should be blocked")
	}
	if c.CanConnect("lcm", "learner-t1") {
		t.Fatal("platform pod should be blocked from learner ingress")
	}
	// Unprotected pods remain reachable.
	if !c.CanConnect("learner-t1", "lcm") {
		t.Fatal("learner egress to unprotected pod should pass (policy is ingress-only)")
	}
	c.RemoveNetworkPolicy("isolate-j1")
	if !c.CanConnect("learner-t2", "learner-t1") {
		t.Fatal("removal should restore default allow")
	}
}

func TestRecoveryTimeWindowForMicroservicePod(t *testing.T) {
	// Shape check for Fig. 4: deleting a Go-microservice pod managed by
	// a Deployment recovers (replacement Running) within a few seconds
	// of virtual time.
	c, clk := newTestCluster(t)
	tmpl := PodSpec{
		Labels:        map[string]string{"app": "api"},
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "srv", StartDelay: 3 * time.Second}},
	}
	if _, err := c.CreateDeployment("api", 1, tmpl); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, c, clk, "api", 1, 60*time.Second)

	victim := c.Pods(map[string]string{"app": "api"})[0].Name()
	start := clk.Now()
	if err := c.DeletePod(victim); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(60 * time.Second)
	for clk.Now().Before(deadline) {
		pods := c.Pods(map[string]string{"app": "api"})
		if len(pods) == 1 && pods[0].Name() != victim && pods[0].Phase() == PodRunning {
			rec := clk.Since(start)
			if rec < 2*time.Second || rec > 8*time.Second {
				t.Fatalf("recovery = %v, want 2-8s", rec)
			}
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no recovery observed")
}
