package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/etcd"
	"repro/internal/kube"
	"repro/internal/nfs"
)

// TestSampleElapsedVirtualTime pins Sample's total virtual cost: n
// measurements separated by (n-1) settle pauses, with no trailing pause
// after the final sample.
func TestSampleElapsedVirtualTime(t *testing.T) {
	c, clk := newTestCluster(t)
	inj := New(c)
	const (
		n       = 4
		settle  = 5 * time.Second
		measure = 3 * time.Second
	)
	start := clk.Now()
	samples, err := inj.Sample(n, settle, func() (time.Duration, error) {
		clk.Sleep(measure)
		return measure, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != n {
		t.Fatalf("samples = %d", len(samples))
	}
	want := n*measure + (n-1)*settle
	if got := clk.Since(start); got != want {
		t.Fatalf("elapsed virtual time = %v, want exactly %v (no settle after final sample)", got, want)
	}
}

// TestSamplePartialResultsOnError pins that a failing measurement
// returns the samples collected so far alongside the error.
func TestSamplePartialResultsOnError(t *testing.T) {
	c, _ := newTestCluster(t)
	inj := New(c)
	boom := errors.New("boom")
	calls := 0
	samples, err := inj.Sample(5, time.Second, func() (time.Duration, error) {
		calls++
		if calls == 3 {
			return 0, boom
		}
		return time.Duration(calls) * time.Second, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if len(samples) != 2 || samples[0] != time.Second || samples[1] != 2*time.Second {
		t.Fatalf("partial samples = %v", samples)
	}
}

func TestMinMaxTable(t *testing.T) {
	cases := []struct {
		name   string
		in     []time.Duration
		lo, hi time.Duration
	}{
		{"empty", nil, 0, 0},
		{"single", []time.Duration{3 * time.Second}, 3 * time.Second, 3 * time.Second},
		{"sorted", []time.Duration{1 * time.Second, 2 * time.Second, 5 * time.Second}, 1 * time.Second, 5 * time.Second},
		{"unsorted", []time.Duration{4 * time.Second, 1 * time.Second, 3 * time.Second}, 1 * time.Second, 4 * time.Second},
		{"duplicates", []time.Duration{2 * time.Second, 2 * time.Second}, 2 * time.Second, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := MinMax(tc.in)
			if lo != tc.lo || hi != tc.hi {
				t.Fatalf("MinMax(%v) = %v-%v, want %v-%v", tc.in, lo, hi, tc.lo, tc.hi)
			}
		})
	}
}

// TestMeasurePodRecoveryAtomicSnapshot is the regression test for the
// before-set race: the victim pick, the before-set snapshot and the
// kill now happen under one cluster quiescent point, so a pod that
// already existed at the kill instant can never be counted as the
// recovery. With decoy pods churning on the same selector, every
// measurement must still reflect a post-kill pod creation — at minimum
// the scheduler+runtime path (~0.5s nominal), never the near-zero
// reading a pre-kill pod registering Running would produce.
func TestMeasurePodRecoveryAtomicSnapshot(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", 2*time.Second)
	inj := New(c)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := kube.PodSpec{
				Name:          fmt.Sprintf("zzz-decoy-%03d", k),
				Labels:        map[string]string{"app": "svc"},
				RestartPolicy: kube.RestartNever,
				Containers: []kube.ContainerSpec{{
					Name:       "main",
					StartDelay: 50 * time.Millisecond,
					Run: func(ctx *kube.ContainerCtx) int {
						ctx.Sleep(100 * time.Millisecond)
						return 0
					},
				}},
			}
			_, _ = c.CreatePod(spec)
			clk.Sleep(200 * time.Millisecond)
		}
	}()

	sel := map[string]string{"app": "svc"}
	for trial := 0; trial < 3; trial++ {
		// Measure only while the deployment's own pod is Running, so the
		// victim is the service replica (name-sorted first), not a decoy.
		deadline := clk.Now().Add(time.Minute)
		for clk.Now().Before(deadline) {
			if p := inj.runningPod(sel); p != nil && strings.HasPrefix(p.Name(), "svc") {
				break
			}
			clk.Sleep(50 * time.Millisecond)
		}
		rec, err := inj.MeasurePodRecovery(sel, time.Minute)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rec < 300*time.Millisecond {
			t.Fatalf("trial %d: recovery = %v — a pod existing before the kill was counted as the replacement", trial, rec)
		}
	}
}

// MeasureContainerRecovery crashes a container process in place and
// measures the virtual time until the kubelet has it running again. No
// experiment measures a container restart, so it lives with its tests.
func (i *Injector) MeasureContainerRecovery(podName, container string, timeout time.Duration) (time.Duration, error) {
	pod := i.cluster.Pod(podName)
	if pod == nil {
		return 0, fmt.Errorf("pod %s: %w", podName, ErrNoTarget)
	}
	restartsBefore := pod.Restarts()
	start := i.clk.Now()
	if err := i.cluster.CrashContainer(podName, container); err != nil {
		return 0, fmt.Errorf("crashing %s/%s: %w", podName, container, err)
	}
	restarted := func() bool {
		_, _, running := pod.ExitInfo(container)
		return running && pod.Restarts() > restartsBefore
	}
	if !i.await(timeout, restarted) {
		return 0, fmt.Errorf("container %s/%s after %v: %w", podName, container, timeout, ErrNoRecovery)
	}
	return i.clk.Since(start), nil
}

// TestMeasureContainerRecoveryCountsNewRestarts pins that the
// measurement demands a restart beyond the count observed at injection
// time: a container that had already restarted before the experiment
// must not satisfy the detector.
func TestMeasureContainerRecoveryCountsNewRestarts(t *testing.T) {
	c, clk := newTestCluster(t)
	deployService(t, c, clk, "svc", 500*time.Millisecond)
	pod := c.Pods(map[string]string{"app": "svc"})[0]
	inj := New(c)

	// Pre-existing restart: crash once and wait for the kubelet to
	// bring the container back.
	if err := c.CrashContainer(pod.Name(), "srv"); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(time.Minute)
	for clk.Now().Before(deadline) {
		if _, _, running := pod.ExitInfo("srv"); running && pod.Restarts() == 1 {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	if pod.Restarts() != 1 {
		t.Fatalf("setup: restarts = %d, want 1", pod.Restarts())
	}

	rec, err := inj.MeasureContainerRecovery(pod.Name(), "srv", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Restarts() != 2 {
		t.Fatalf("restarts after measurement = %d, want 2", pod.Restarts())
	}
	// Second in-place restart pays CrashLoopBackOff (10s base) plus the
	// start delay; a pre-existing restart being miscounted would return
	// in under a poll grain.
	if rec < time.Second {
		t.Fatalf("container recovery = %v, suspiciously fast", rec)
	}
}

func TestMeasureContainerRecoveryNoTarget(t *testing.T) {
	c, _ := newTestCluster(t)
	inj := New(c)
	if _, err := inj.MeasureContainerRecovery("ghost", "srv", time.Second); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", err)
	}
}

func TestMeasurePodRecoveryNoRecovery(t *testing.T) {
	c, clk := newTestCluster(t)
	// Slow replacement: the deployment's pods take ~7s to start, so a
	// 1s budget must report ErrNoRecovery.
	deployService(t, c, clk, "svc", 7*time.Second)
	inj := New(c)
	_, err := inj.MeasurePodRecovery(map[string]string{"app": "svc"}, time.Second)
	if !errors.Is(err, ErrNoRecovery) {
		t.Fatalf("err = %v, want ErrNoRecovery", err)
	}
}

func TestMeasureContainerRecoveryNoRecovery(t *testing.T) {
	c, clk := newTestCluster(t)
	spec := kube.PodSpec{
		Name:          "oneshot",
		RestartPolicy: kube.RestartNever,
		Containers:    []kube.ContainerSpec{{Name: "main", StartDelay: 100 * time.Millisecond}},
	}
	if _, err := c.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(time.Minute)
	for c.Pod("oneshot") == nil || c.Pod("oneshot").Phase() != kube.PodRunning {
		if !clk.Now().Before(deadline) {
			t.Fatal("pod never ran")
		}
		clk.Sleep(20 * time.Millisecond)
	}
	inj := New(c)
	_, err := inj.MeasureContainerRecovery("oneshot", "main", 2*time.Second)
	if !errors.Is(err, ErrNoRecovery) {
		t.Fatalf("err = %v, want ErrNoRecovery", err)
	}
}

// ---- compound-fault engine ----------------------------------------

func TestJitterIsSeedDeterministic(t *testing.T) {
	base := Schedule{
		{At: 30 * time.Second, Fault: "nfs-stall", Target: "nfs"},
		{At: 60 * time.Second, Fault: "nfs-heal", Target: "nfs"},
		{At: 90 * time.Second, Fault: "kill-pod", Target: "learner"},
	}
	a := Jitter(rand.New(rand.NewSource(7)), base, 0.2)
	b := Jitter(rand.New(rand.NewSource(7)), base, 0.2)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k].At != b[k].At || a[k].Fault != b[k].Fault {
			t.Fatalf("step %d differs: %+v vs %+v", k, a[k], b[k])
		}
	}
	// Jitter must not reorder: the heal stays after the stall.
	for k := 1; k < len(a); k++ {
		if a[k].At < a[k-1].At {
			t.Fatalf("schedule reordered: %v before %v", a[k], a[k-1])
		}
	}
	if a[0].Fault != "nfs-stall" || a[1].Fault != "nfs-heal" {
		t.Fatalf("order broken: %v", a)
	}
}

func TestExecuteRunsStepsInOrderAtOffsets(t *testing.T) {
	c, clk := newTestCluster(t)
	inj := New(c)
	var fired []string
	sched := Schedule{
		{At: 2 * time.Second, Fault: "b", Apply: func(*Injector) error { fired = append(fired, "b"); return nil }},
		{At: 1 * time.Second, Fault: "a", Apply: func(*Injector) error { fired = append(fired, "a"); return errors.New("a failed") }},
		{At: 3 * time.Second, Fault: "c", Apply: func(*Injector) error { fired = append(fired, "c"); return nil }},
	}
	start := clk.Now()
	results := inj.Execute(sched)
	if got := strings.Join(fired, ""); got != "abc" {
		t.Fatalf("execution order = %q", got)
	}
	if results[0].Err == "" || results[1].Err != "" {
		t.Fatalf("error recording wrong: %+v", results)
	}
	for k, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if results[k].FiredAt < want {
			t.Fatalf("step %d fired at %v, before its offset %v", k, results[k].FiredAt, want)
		}
	}
	if clk.Since(start) < 3*time.Second {
		t.Fatal("Execute returned before the last offset")
	}
}

func TestFaultPrimitivesAndHealAll(t *testing.T) {
	c, clk := newTestCluster(t)
	nfsSrv := nfs.NewServer(clk)
	etcdStore := etcd.New(1, clk)
	t.Cleanup(etcdStore.Close)
	inj := New(c).AttachNFS(nfsSrv).AttachEtcd(etcdStore)

	// Unattached injectors fail loudly.
	bare := New(c)
	if err := bare.StallNFS(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("StallNFS unattached: %v", err)
	}
	if _, err := bare.PartitionEtcdLeader(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("PartitionEtcdLeader unattached: %v", err)
	}

	if err := inj.StallNFS(); err != nil {
		t.Fatal(err)
	}
	if nfsSrv.FaultMode() != nfs.FaultStall {
		t.Fatal("NFS not stalled")
	}

	leader, err := inj.PartitionEtcdLeader()
	if err != nil {
		t.Fatal(err)
	}

	deployService(t, c, clk, "svc", 500*time.Millisecond)
	sel := map[string]string{"app": "svc"}
	node, err := inj.NodeOf(sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.SkewNodeClockOf(sel, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if off := c.NodeClock(node).Now().Sub(clk.Now()); off != 30*time.Second {
		t.Fatalf("skew = %v", off)
	}
	if err := c.CordonNode(node); err != nil {
		t.Fatal(err)
	}

	inj.HealAll()
	if nfsSrv.FaultMode() != nfs.FaultNone {
		t.Fatal("HealAll left NFS stalled")
	}
	if !c.NodeClock(node).Now().Equal(clk.Now()) {
		t.Fatal("HealAll left node skewed")
	}
	for _, n := range c.Nodes() {
		if n.Cordoned() || n.Down() {
			t.Fatalf("HealAll left node %s cordoned/down", n.Spec.Name)
		}
	}
	// The healed store must accept writes again (single replica: the
	// partition was a full outage).
	if _, err := etcdStore.Put("/k", "v"); err != nil {
		t.Fatalf("etcd write after HealAll: %v", err)
	}
	_ = leader

	// Kill primitives.
	if _, err := inj.KillOnePod(map[string]string{"app": "ghost"}); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("KillOnePod no match: %v", err)
	}
	if n, err := inj.KillAllPods(sel); err != nil || n != 1 {
		t.Fatalf("KillAllPods = %d, %v", n, err)
	}
}
