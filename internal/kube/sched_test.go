package kube

import (
	"fmt"
	"testing"
	"time"
)

func gpuPod(name string, gpus int) PodSpec {
	return PodSpec{
		Name:          name,
		GPUs:          gpus,
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "c", StartDelay: 10 * time.Millisecond}},
	}
}

func TestBinPackFillsFirstNode(t *testing.T) {
	c, clk := newTestCluster(t,
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("bp-%d", i)
		if _, err := c.CreatePod(gpuPod(name, 1)); err != nil {
			t.Fatal(err)
		}
		waitPhase(t, c, clk, name, PodRunning, 30*time.Second)
	}
	// All four land on n1.
	for _, p := range c.Pods(nil) {
		if p.NodeName() != "n1" {
			t.Fatalf("pod %s on %s, want n1", p.Name(), p.NodeName())
		}
	}
}

func TestLivenessProbeRestartsHungProcess(t *testing.T) {
	c, clk := newTestCluster(t)
	healthy := make(chan bool, 16)
	healthy <- true
	alive := true
	spec := PodSpec{
		Name:          "hung",
		RestartPolicy: RestartAlways,
		Containers: []ContainerSpec{{
			Name:             "srv",
			StartDelay:       50 * time.Millisecond,
			LivenessInterval: time.Second,
			Liveness: func() bool {
				select {
				case v := <-healthy:
					alive = v
				default:
				}
				return alive
			},
		}},
	}
	p, err := c.CreatePod(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "hung", PodRunning, 30*time.Second)

	// Healthy probes do not restart the container.
	clk.Sleep(5 * time.Second)
	if p.Restarts() != 0 {
		t.Fatalf("restarts = %d before hang", p.Restarts())
	}
	// Simulate a hang: the probe starts failing; the kubelet kills and
	// restarts the container (first restart immediate).
	healthy <- false
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		if p.Restarts() >= 1 {
			// Recover the probe so the restarted container stays up.
			alive = true
			return
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatal("hung container was never restarted by the liveness probe")
}
