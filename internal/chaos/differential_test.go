package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/kube"
)

// referencePodRecovery is MeasurePodRecovery with the wait it had before
// it was gated on pod changes: look, Sleep(pollGrain), look again.
func referencePodRecovery(i *Injector, selector map[string]string, timeout time.Duration) (time.Duration, error) {
	victim := i.runningPod(selector)
	if victim == nil {
		return 0, fmt.Errorf("selecting %v: %w", selector, ErrNoTarget)
	}
	start := i.clk.Now()
	snapshot, err := i.cluster.DeletePodAndSnapshot(victim.Name(), selector)
	if err != nil {
		return 0, fmt.Errorf("killing %s: %w", victim.Name(), err)
	}
	before := make(map[*kube.Pod]bool, len(snapshot))
	for _, p := range snapshot {
		before[p] = true
	}
	deadline := start.Add(timeout)
	for i.clk.Now().Before(deadline) {
		for _, p := range i.cluster.Pods(selector) {
			if !before[p] && p.Phase() == kube.PodRunning {
				return i.clk.Since(start), nil
			}
		}
		i.clk.Sleep(pollGrain)
	}
	return 0, fmt.Errorf("selector %v after %v: %w", selector, timeout, ErrNoRecovery)
}

// measurement is what one kill-and-measure run produced.
type measurement struct {
	took     time.Duration // what measure reported
	err      string
	returned time.Duration // when it returned, from the call
	instants uint64        // clock instants between the two
}

// recovery deploys a one-replica service on a manual clock stepped only
// while every goroutine is blocked, and kills its pod with measure.
func recovery(t *testing.T, seed int64, timeout time.Duration,
	measure func(*Injector, map[string]string, time.Duration) (time.Duration, error)) measurement {
	t.Helper()
	clk := clock.NewManual()
	c := kube.NewCluster(kube.Config{Clock: clk, Seed: seed}, kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	selector := map[string]string{"app": "svc"}
	if _, err := c.CreateDeployment("svc", 1, kube.PodSpec{
		Labels:        selector,
		RestartPolicy: kube.RestartAlways,
		Containers:    []kube.ContainerSpec{{Name: "srv", StartDelay: 2 * time.Second}},
	}); err != nil {
		t.Fatal(err)
	}
	clocktest.Run(clk, 10*time.Second)
	called, up := clk.Now(), clk.Instants()

	var m measurement
	done := make(chan struct{})
	go func() {
		defer close(done)
		took, err := measure(New(c), selector, timeout)
		m = measurement{took: took, err: fmt.Sprint(err), returned: clk.Since(called)}
	}()
	clocktest.Run(clk, 20*time.Second)
	select {
	case <-done:
	default:
		t.Fatalf("seed %d: measurement still running after 20s", seed)
	}
	m.instants = clk.Instants() - up
	return m
}

// TestMeasurePodRecoveryGatedWaitKeepsResult: waiting for a pod change
// instead of waking every pollGrain reports the same recovery time, to
// the nanosecond — still quantized to pollGrain from the kill — and the
// same failure at the same deadline, in far fewer instants.
func TestMeasurePodRecoveryGatedWaitKeepsResult(t *testing.T) {
	same := func(a, b measurement) bool {
		return a.took == b.took && a.err == b.err && a.returned == b.returned
	}
	for seed := int64(1); seed <= 3; seed++ {
		plain := recovery(t, seed, time.Minute, referencePodRecovery)
		gated := recovery(t, seed, time.Minute, (*Injector).MeasurePodRecovery)
		if plain.err != "<nil>" || plain.took == 0 || plain.took%pollGrain != 0 {
			t.Fatalf("seed %d: the every-tick loop measured %+v", seed, plain)
		}
		if !same(gated, plain) {
			t.Errorf("seed %d: measured %+v, the every-tick loop %+v", seed, gated, plain)
		}
		// Some 3 s of recovery is 150 ticks, a handful of them after a
		// pod change.
		if gated.instants+100 > plain.instants {
			t.Errorf("seed %d: gated wait took %d instants, the every-tick loop %d: want at least 100 fewer",
				seed, gated.instants, plain.instants)
		}
	}
	// A recovery that outlasts the timeout is given up on at the deadline.
	plain := recovery(t, 1, time.Second, referencePodRecovery)
	gated := recovery(t, 1, time.Second, (*Injector).MeasurePodRecovery)
	if plain.err == "<nil>" || plain.returned != time.Second {
		t.Fatalf("timeout: the every-tick loop measured %+v", plain)
	}
	if !same(gated, plain) {
		t.Errorf("timeout: measured %+v, the every-tick loop %+v", gated, plain)
	}
}
