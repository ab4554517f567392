package kube

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// drawsSeed is the one seed the tests below compare clusters at.
const drawsSeed = 4242

// runningLog records, on a manual clock, the virtual time at which each
// pod of a cluster is first seen Running, measured from the log's start.
// The clock moves only under clocktest.Run, which waits for the watcher
// to look before the next instant, so each time is exact.
type runningLog struct {
	start time.Time
	at    map[*Pod]time.Duration
	stop  func()
}

func newDrawsCluster(t *testing.T) (*Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewManual()
	c := NewCluster(Config{Clock: clk, Seed: drawsSeed},
		NodeSpec{Name: "node-a", GPUs: 8, GPUType: "K80"},
		NodeSpec{Name: "node-b", GPUs: 8, GPUType: "K80"})
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

func watchRunning(t *testing.T, c *Cluster, clk *clock.Sim) *runningLog {
	l := &runningLog{start: clk.Now(), at: map[*Pod]time.Duration{}}
	wake, cancel := c.SubscribePods()
	done := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-wake:
			}
			for _, p := range c.Pods(nil) {
				if _, seen := l.at[p]; !seen && p.Phase() == PodRunning {
					l.at[p] = clk.Since(l.start)
				}
			}
		}
	}()
	var once sync.Once
	l.stop = func() {
		once.Do(func() {
			cancel()
			close(quit)
			<-done
		})
	}
	t.Cleanup(l.stop) // a test that fails before stop
	return l
}

// list renders the log as sorted "name@duration" lines. Call it after
// stop.
func (l *runningLog) list() []string {
	out := make([]string, 0, len(l.at))
	for p, d := range l.at {
		out = append(out, fmt.Sprintf("%s@%v", p.Name(), d))
	}
	slices.Sort(out)
	return out
}

func serverSpec(name string, labels map[string]string, containers int) PodSpec {
	spec := PodSpec{Name: name, Labels: labels, GPUs: 1, RestartPolicy: RestartAlways}
	for i := range containers {
		spec.Containers = append(spec.Containers, ContainerSpec{
			Name: fmt.Sprintf("c%d", i), StartDelay: 2 * time.Second,
		})
	}
	return spec
}

// TestPodDelaysIgnoreOtherPods creates pod x at one seed in two clusters:
// alone in one, and in the other only after pod y has reached Running. x
// draws its delays from its own key, so it takes as long from Pending to
// Running in both. A cluster-wide stream fails this: y's draws move it.
func TestPodDelaysIgnoreOtherPods(t *testing.T) {
	upTime := func(withY bool) time.Duration {
		c, clk := newDrawsCluster(t)
		if withY {
			if _, err := c.CreatePod(serverSpec("y", nil, 2)); err != nil {
				t.Fatal(err)
			}
			clocktest.Run(clk, 10*time.Second)
			if ph := c.Pod("y").Phase(); ph != PodRunning {
				t.Fatalf("y is %v, want %v", ph, PodRunning)
			}
		}
		l := watchRunning(t, c, clk)
		x, err := c.CreatePod(serverSpec("x", nil, 2))
		if err != nil {
			t.Fatal(err)
		}
		clocktest.Run(clk, 10*time.Second)
		l.stop()
		d, ok := l.at[x]
		if !ok {
			t.Fatalf("x did not reach Running (withY %v)", withY)
		}
		return d
	}
	alone, afterY := upTime(false), upTime(true)
	if alone != afterY {
		t.Errorf("x reached Running after %v alone, %v after y: its delays depend on other pods", alone, afterY)
	}
}

// TestOwnedPodsReplayAtOneSeed creates a 4-ordinal StatefulSet and a
// 2-replica Deployment at one instant, kills one pod of each once all run,
// and lets both controllers replace them. Every pod's Running time, the
// replacements' included, must be the same in fresh clusters at one seed,
// whatever order the pods' and controllers' goroutines ran in.
func TestOwnedPodsReplayAtOneSeed(t *testing.T) {
	history := func() []string {
		c, clk := newDrawsCluster(t)
		l := watchRunning(t, c, clk)
		if _, err := c.CreateStatefulSet("ss", 4, serverSpec("", map[string]string{"app": "ss"}, 2)); err != nil {
			t.Fatal(err)
		}
		web := map[string]string{"app": "web"}
		if _, err := c.CreateDeployment("web", 2, serverSpec("", web, 1)); err != nil {
			t.Fatal(err)
		}
		clocktest.Run(clk, 10*time.Second)
		if err := c.DeletePod("ss-1"); err != nil {
			t.Fatal(err)
		}
		if err := c.DeletePod(c.Pods(web)[0].Name()); err != nil {
			t.Fatal(err)
		}
		clocktest.Run(clk, 10*time.Second)
		l.stop()
		return l.list()
	}
	want := history()
	if len(want) != 8 {
		t.Fatalf("%d pods reached Running, want 8 (6 and 2 replacements): %v", len(want), want)
	}
	for run := 1; run < 10; run++ {
		if got := history(); !slices.Equal(got, want) {
			t.Fatalf("run %d: Running times\n%v\nwant (run 0)\n%v", run, got, want)
		}
	}
}
