//go:build !race

// Object counts are exact only without the race detector: under -race
// sync.Pool (the clock's timer pool) drops Puts on purpose.

package kube

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// TestPodLifecycleAllocs pins what a pod costs the kubelet in heap
// objects, from CreatePod to Succeeded, on a manual clock with jitter-free
// timing and again with the default jitter, whose draws allocate nothing:
// the pod and its spec's clone, one timer per wait, one supervisor
// goroutine per container but the last (which the pod's own goroutine
// supervises), and per container its process channel, context and runner.
func TestPodLifecycleAllocs(t *testing.T) {
	for _, jitter := range []float64{0, DefaultTiming().JitterFraction} {
		podLifecycleAllocs(t, jitter)
	}
}

func podLifecycleAllocs(t *testing.T, jitter float64) {
	clk := clock.NewManual()
	timing := DefaultTiming()
	timing.JitterFraction = jitter
	c := NewCluster(Config{Clock: clk, Timing: timing}, NodeSpec{Name: "node-a", GPUs: 4, GPUType: "K80"})
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	exit := func(*ContainerCtx) int { return 0 }

	for _, tc := range []struct {
		containers int
		want       float64
	}{
		// Measured 19 and 37 while the pod's goroutine waited on two
		// WaitGroups and a start waiter beside its supervisors.
		{containers: 1, want: 11},
		{containers: 4, want: 26},
	} {
		spec := PodSpec{Name: "pod", GPUs: 1, RestartPolicy: RestartNever}
		for i := range tc.containers {
			spec.Containers = append(spec.Containers, ContainerSpec{
				Name: fmt.Sprintf("c%d", i), StartDelay: time.Second, Run: exit,
			})
		}
		allocs := testing.AllocsPerRun(20, func() {
			p, err := c.CreatePod(spec)
			if err != nil {
				t.Fatal(err)
			}
			// At most 1.15 × (0.1 + 0.4 + 1) s of jittered delays.
			clocktest.Run(clk, 2*time.Second)
			if ph := p.Phase(); ph != PodSucceeded {
				t.Fatalf("jitter %v: pod phase %s, want %s", jitter, ph, PodSucceeded)
			}
		})
		t.Logf("jitter %v, %d-container pod: %.0f objects", jitter, tc.containers, allocs)
		if allocs != tc.want {
			t.Errorf("jitter %v: %d-container pod = %.0f objects, want %.0f", jitter, tc.containers, allocs, tc.want)
		}
	}
}
