package kube

import (
	"errors"
	"testing"
	"time"
)

func TestSetNodeSkewAndNodeClock(t *testing.T) {
	c, clk := newTestCluster(t)
	if err := c.SetNodeSkew("node-a", 45*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeSkew("ghost", time.Second); !errors.Is(err, ErrNoNode) {
		t.Fatalf("skewing unknown node: err = %v, want ErrNoNode", err)
	}
	base := clk.Now()
	if got := c.NodeClock("node-a").Now().Sub(base); got != 45*time.Second {
		t.Fatalf("node-a clock offset = %v, want 45s", got)
	}
	if got := c.NodeClock("node-b").Now(); !got.Equal(base) {
		t.Fatalf("unskewed node-b reads %v, want cluster time %v", got, base)
	}

	// A container process observes its node's skew through its ctx.
	readings := make(chan time.Duration, 1)
	spec := sleeperSpec("skew-probe", time.Hour, 0)
	run := spec.Containers[0].Run
	spec.Containers[0].Run = func(ctx *ContainerCtx) int {
		readings <- ctx.Clock().Now().Sub(c.Clock().Now())
		return run(ctx)
	}
	if _, err := c.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "skew-probe", PodRunning, time.Minute)
	select {
	case off := <-readings:
		// The probe landed on node-a (binpack fills name order) and must
		// read its 45s skew; if placement ever changes, an unskewed 0
		// would still be a legal node-b reading, so pin the node.
		node := c.Pod("skew-probe").NodeName()
		want := time.Duration(0)
		if node == "node-a" {
			want = 45 * time.Second
		}
		if off != want {
			t.Fatalf("container on %s read skew %v, want %v", node, off, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never reported")
	}

	// Healing: zero offset restores cluster time.
	if err := c.SetNodeSkew("node-a", 0); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeClock("node-a").Now(); !got.Equal(clk.Now()) {
		t.Fatal("healed node still skewed")
	}
}

// TestDeletePodAndSnapshotIsOneCut runs on a manual clock: the pods sleep
// an hour, so an automatic clock left alone while this goroutine is off
// the CPU jumps past waitPhase's deadline.
func TestDeletePodAndSnapshotIsOneCut(t *testing.T) {
	c, clk := newManualCluster(t)
	labels := map[string]string{"app": "svc"}
	mk := func(name string) {
		spec := sleeperSpec(name, time.Hour, 0)
		spec.Labels = labels
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
	}
	mk("svc-1")
	mk("svc-2")
	waitPhase(t, c, clk, "svc-1", PodRunning, time.Minute)
	waitPhase(t, c, clk, "svc-2", PodRunning, time.Minute)

	snap, err := c.DeletePodAndSnapshot("svc-1", labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d pods, want 2 (victim included)", len(snap))
	}
	names := map[string]bool{}
	for _, p := range snap {
		names[p.Name()] = true
	}
	if !names["svc-1"] || !names["svc-2"] {
		t.Fatalf("snapshot = %v", names)
	}
	// The victim was killed in the same cut.
	deadline := clk.Now().Add(time.Minute)
	for c.Pod("svc-1") != nil && clk.Now().Before(deadline) {
		clk.Sleep(20 * time.Millisecond)
	}
	if c.Pod("svc-1") != nil {
		t.Fatal("victim still registered")
	}

	if _, err := c.DeletePodAndSnapshot("ghost", labels); !errors.Is(err, ErrNoPod) {
		t.Fatalf("unknown victim: err = %v, want ErrNoPod", err)
	}
}
