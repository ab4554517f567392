package kube

import (
	"testing"
	"time"

	"repro/internal/clock"
)

func TestFreeGPUsAccounting(t *testing.T) {
	c, clk := newTestCluster(t,
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "P100"},
	)
	if got := c.FreeGPUs(""); got != 8 {
		t.Fatalf("total free = %d, want 8", got)
	}
	if got := c.FreeGPUs("K80"); got != 4 {
		t.Fatalf("K80 free = %d, want 4", got)
	}
	spec := sleeperSpec("eater", time.Hour, 0)
	spec.GPUs = 3
	spec.GPUType = "K80"
	if _, err := c.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "eater", PodRunning, 30*time.Second)
	if got := c.FreeGPUs("K80"); got != 1 {
		t.Fatalf("K80 free after placement = %d, want 1", got)
	}
	if got := c.FreeGPUs("P100"); got != 4 {
		t.Fatalf("P100 free = %d, want 4", got)
	}
}

func TestCordonExcludesFromScheduling(t *testing.T) {
	c, clk := newTestCluster(t, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	if err := c.CordonNode("n1"); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeGPUs(""); got != 0 {
		t.Fatalf("cordoned free = %d, want 0", got)
	}
	p, err := c.CreatePod(sleeperSpec("waiting", time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(3 * time.Second)
	if p.Phase() != PodPending {
		t.Fatalf("phase = %v, want Pending on cordoned cluster", p.Phase())
	}
	if err := c.UncordonNode("n1"); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "waiting", PodRunning, 30*time.Second)
}

// TestCordonDoesNotDisturbRunningPods runs on a manual clock, like
// TestGPUSchedulingCapacity.
func TestCordonDoesNotDisturbRunningPods(t *testing.T) {
	c, clk := newManualCluster(t, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	p, err := c.CreatePod(sleeperSpec("stays", time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "stays", PodRunning, 30*time.Second)
	if err := c.CordonNode("n1"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(3 * time.Second)
	if p.Phase() != PodRunning {
		t.Fatalf("phase = %v, cordon must not evict", p.Phase())
	}
}

func TestDrainEvictsAndControllerReschedules(t *testing.T) {
	c, clk := newTestCluster(t,
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	tmpl := PodSpec{
		Labels:        map[string]string{"app": "svc"},
		RestartPolicy: RestartAlways,
		Containers:    []ContainerSpec{{Name: "c", StartDelay: 50 * time.Millisecond}},
	}
	if _, err := c.CreateDeployment("svc", 2, tmpl); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, c, clk, "svc", 2, 30*time.Second)

	// Drain whichever node hosts a replica.
	victim := c.Pods(map[string]string{"app": "svc"})[0].NodeName()
	if err := c.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	// All replicas converge onto the other node.
	deadline := clk.Now().Add(60 * time.Second)
	for clk.Now().Before(deadline) {
		pods := c.Pods(map[string]string{"app": "svc"})
		ok := len(pods) == 2
		for _, p := range pods {
			if p.Phase() != PodRunning || p.NodeName() == victim {
				ok = false
			}
		}
		if ok {
			return
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatal("drained pods did not reschedule off the node")
}

// waitFreeGPUs polls the schedulable free-GPU count.
func waitFreeGPUs(t *testing.T, c *Cluster, clk *clock.Sim, want int, timeout time.Duration) {
	t.Helper()
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if c.FreeGPUs("") == want {
			return
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("free GPUs = %d, want %d", c.FreeGPUs(""), want)
}

// TestDrainMidGangEvictsThroughScheduler is the regression test for the
// seed behavior where DrainNode killed a gang member pod directly and
// the scheduler's holdings ledger never heard about it. Drain now flows
// through the gang scheduler: the resident gang is evicted whole (to
// GangPreempted, so its owner redeploys), its reservations are fully
// withdrawn, and every GPU comes back.
func TestDrainMidGangEvictsThroughScheduler(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 2, GPUType: "K80"},
	)
	g, err := c.SubmitGang(GangSpec{Name: "dg", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if g.State() != GangAdmitted {
		t.Fatalf("gang state = %v, want Admitted", g.State())
	}
	for m := 0; m < 2; m++ {
		if _, err := c.CreatePod(memberSpec("dg", m, 2)); err != nil {
			t.Fatal(err)
		}
	}
	waitPhase(t, c, clk, "dg-0", PodRunning, 30*time.Second)
	waitPhase(t, c, clk, "dg-1", PodRunning, 30*time.Second)
	if res := g.NodeReservations(); res["n1"] != 2 || res["n2"] != 2 {
		t.Fatalf("reservations = %v, want 2 on each node", res)
	}

	if err := c.DrainNode("n1"); err != nil {
		t.Fatal(err)
	}
	waitGangState(t, clk, g, GangPreempted, 30*time.Second)
	if res := g.NodeReservations(); len(res) != 0 {
		t.Fatalf("preempted gang still holds reservations: %v", res)
	}
	// The dying members' GPUs return: n2's 2 while n1 is cordoned, all 4
	// after uncordon — nothing leaked into a stale holdings entry.
	waitFreeGPUs(t, c, clk, 2, 60*time.Second)
	if err := c.UncordonNode("n1"); err != nil {
		t.Fatal(err)
	}
	waitFreeGPUs(t, c, clk, 4, 60*time.Second)
}

// TestDrainGracefulEvictionAckAndLedger drains a node hosting gang
// members under a grace period: the gang gets an eviction intent
// (reason drain) and keeps running; the owner's ack completes the
// eviction, and the holdings ledger ends consistent.
func TestDrainGracefulEvictionAckAndLedger(t *testing.T) {
	c, clk := newGangCluster(t, Config{EvictionGracePeriod: time.Minute},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 2, GPUType: "K80"},
	)
	g, err := c.SubmitGang(GangSpec{Name: "gg", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if _, err := c.CreatePod(memberSpec("gg", m, 2)); err != nil {
			t.Fatal(err)
		}
	}
	waitPhase(t, c, clk, "gg-0", PodRunning, 30*time.Second)
	waitPhase(t, c, clk, "gg-1", PodRunning, 30*time.Second)

	if err := c.DrainNode("n2"); err != nil {
		t.Fatal(err)
	}
	if got := g.State(); got != GangEvicting {
		t.Fatalf("gang state after graceful drain = %v, want Evicting", got)
	}
	select {
	case <-g.EvictionNotice():
	default:
		t.Fatal("eviction notice not posted")
	}
	intent, ok := g.EvictionIntent()
	if !ok || intent.Reason != EvictReasonDrain {
		t.Fatalf("intent = %+v (ok=%v), want drain reason", intent, ok)
	}
	if want := intent.PostedAt.Add(time.Minute); !intent.Deadline.Equal(want) {
		t.Fatalf("deadline = %v, want %v", intent.Deadline, want)
	}
	// Grace window: the members keep training (checkpointing) — no kill.
	clk.Sleep(3 * time.Second)
	for m := 0; m < 2; m++ {
		name := "gg-" + string(rune('0'+m))
		if p := c.Pod(name); p == nil || p.Phase() != PodRunning {
			t.Fatalf("member %s not running during grace window", name)
		}
	}

	c.AckEviction("gg")
	waitGangState(t, clk, g, GangPreempted, 30*time.Second)
	if res := g.NodeReservations(); len(res) != 0 {
		t.Fatalf("reservations after completed eviction: %v", res)
	}
	waitFreeGPUs(t, c, clk, 2, 60*time.Second) // n2 cordoned
	if err := c.UncordonNode("n2"); err != nil {
		t.Fatal(err)
	}
	waitFreeGPUs(t, c, clk, 4, 60*time.Second)
}

// TestGracefulPreemptionDeadlineForceEvicts: a higher-priority gang
// posts an intent to the victim instead of killing it; a victim that
// never acks (wedged) is force-evicted at the grace deadline, so it
// cannot block the preemptor indefinitely.
func TestGracefulPreemptionDeadlineForceEvicts(t *testing.T) {
	c, clk := newGangCluster(t, Config{EvictionGracePeriod: 5 * time.Second},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
	)
	low, err := c.SubmitGang(GangSpec{Name: "low", Tenant: "a", Priority: 1, Members: 1, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePod(memberSpec("low", 0, 2)); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "low-0", PodRunning, 30*time.Second)

	hi, err := c.SubmitGang(GangSpec{Name: "hi", Tenant: "b", Priority: 10, Members: 1, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	waitGangState(t, clk, low, GangEvicting, 10*time.Second)
	if hi.State() != GangPending {
		t.Fatalf("preemptor state = %v, want Pending through the grace window", hi.State())
	}
	if p := c.Pod("low-0"); p == nil || p.Phase() != PodRunning {
		t.Fatal("victim pod killed before the grace deadline")
	}
	// Repeated reschedule passes during the grace window must not try to
	// find more victims (the projection counts the evicting gang).
	c.sched.kick()
	if low.State() != GangEvicting {
		t.Fatalf("victim state churned to %v on reschedule", low.State())
	}

	// No ack ever arrives: the deadline completes the eviction.
	waitGangState(t, clk, low, GangPreempted, 30*time.Second)
	waitGangState(t, clk, hi, GangAdmitted, 30*time.Second)
}

// TestZeroGraceEvictsThroughIntent: without a grace period, preemption
// and drain still post an eviction intent, whose deadline is the posting
// instant. The notice closes at once; the gang leaves GangEvicting, and
// its capacity moves, only when that deadline fires.
func TestZeroGraceEvictsThroughIntent(t *testing.T) {
	for _, tc := range []struct {
		reason string
		evict  func(t *testing.T, c *Cluster)
	}{
		{EvictReasonPreemption, func(t *testing.T, c *Cluster) {
			if _, err := c.SubmitGang(GangSpec{Name: "hi", Priority: 9, Members: 1, GPUsPerMember: 4}); err != nil {
				t.Fatal(err)
			}
		}},
		{EvictReasonDrain, func(t *testing.T, c *Cluster) {
			if err := c.DrainNode("n1"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			c, clk := newManualCluster(t, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
			n1 := c.Nodes()[0]
			v, err := c.SubmitGang(GangSpec{Name: "v", Priority: 1, Members: 1, GPUsPerMember: 4})
			if err != nil {
				t.Fatal(err)
			}
			tc.evict(t, c)

			if got := v.State(); got != GangEvicting {
				t.Fatalf("victim state = %v, want Evicting until the deadline fires", got)
			}
			select {
			case <-v.EvictionNotice():
			default:
				t.Fatal("eviction notice not closed")
			}
			intent, ok := v.EvictionIntent()
			if !ok || intent.Reason != tc.reason || !intent.Deadline.Equal(intent.PostedAt) {
				t.Fatalf("intent = %+v (ok=%v), want reason %q with the deadline at posting", intent, ok, tc.reason)
			}
			if res := v.NodeReservations(); res["n1"] != 4 || n1.FreeGPUs() != 0 {
				t.Fatalf("capacity moved before the deadline: reservations %v, n1 free %d", res, n1.FreeGPUs())
			}

			clk.Sleep(0) // fire the posting instant's deadline
			if got := v.State(); got != GangPreempted {
				t.Fatalf("victim state = %v after the deadline, want Preempted", got)
			}
			if res := v.NodeReservations(); len(res) != 0 {
				t.Fatalf("preempted victim still holds %v", res)
			}
			if tc.reason == EvictReasonPreemption {
				if hi := c.GangByName("hi"); hi.State() != GangAdmitted {
					t.Fatalf("preemptor = %v, want Admitted on the freed capacity", hi.State())
				}
			} else if n1.FreeGPUs() != 4 {
				t.Fatalf("drained n1 free = %d, want 4", n1.FreeGPUs())
			}
		})
	}
}

func TestDrainUnknownNode(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.DrainNode("ghost"); err == nil {
		t.Fatal("draining unknown node succeeded")
	}
	if err := c.CordonNode("ghost"); err == nil {
		t.Fatal("cordoning unknown node succeeded")
	}
	if err := c.UncordonNode("ghost"); err == nil {
		t.Fatal("uncordoning unknown node succeeded")
	}
}
