package kube

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func newGangCluster(t *testing.T, cfg Config, nodes ...NodeSpec) (*Cluster, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	cfg.Clock = clk
	c := NewCluster(cfg, nodes...)
	t.Cleanup(func() {
		c.Stop()
		clk.Close()
	})
	return c, clk
}

// memberSpec builds one gang member pod that runs until killed.
func memberSpec(gang string, ordinal, gpus int) PodSpec {
	return PodSpec{
		Name:          fmt.Sprintf("%s-%d", gang, ordinal),
		Gang:          gang,
		GPUs:          gpus,
		RestartPolicy: RestartNever,
		Labels:        map[string]string{"gang": gang},
		Containers:    []ContainerSpec{{Name: "m", StartDelay: 10 * time.Millisecond}},
	}
}

// waitGangState polls until the gang reaches the wanted state.
func waitGangState(t *testing.T, clk *clock.Sim, g *Gang, want GangState, timeout time.Duration) {
	t.Helper()
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if g.State() == want {
			return
		}
		clk.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("gang %s state = %v, want %v", g.Spec.Name, g.State(), want)
}

func TestGangAdmissionAllOrNothing(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	// 3 members x 2 GPUs = 6 of 8: fits (4 on n1, 2 on n2).
	a, err := c.SubmitGang(GangSpec{Name: "gang-a", Members: 3, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if a.State() != GangAdmitted {
		t.Fatalf("gang-a state = %v, want Admitted", a.State())
	}
	// 2 members x 2 GPUs = 4 > 2 free: must NOT partially admit.
	b, err := c.SubmitGang(GangSpec{Name: "gang-b", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != GangPending {
		t.Fatalf("gang-b state = %v, want Pending", b.State())
	}
	if got := len(b.NodeReservations()); got != 0 {
		t.Fatalf("pending gang holds reservations: %v", b.NodeReservations())
	}
	// Releasing A admits B in full.
	c.CancelGang("gang-a")
	waitGangState(t, clk, b, GangAdmitted, 10*time.Second)
	total := 0
	for _, k := range b.NodeReservations() {
		total += k
	}
	if total != 4 {
		t.Fatalf("gang-b reserved %d GPUs, want 4 (%v)", total, b.NodeReservations())
	}
}

func TestGangSubmitIdempotent(t *testing.T) {
	c, _ := newGangCluster(t, Config{}, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	g1, err := c.SubmitGang(GangSpec{Name: "g", Members: 1, GPUsPerMember: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.SubmitGang(GangSpec{Name: "g", Members: 1, GPUsPerMember: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("resubmission returned a different gang handle")
	}
	if _, err := c.SubmitGang(GangSpec{Name: "", Members: 1}); err == nil {
		t.Fatal("nameless gang accepted")
	}
	if _, err := c.SubmitGang(GangSpec{Name: "x", Members: 0}); err == nil {
		t.Fatal("memberless gang accepted")
	}
}

func TestGangUnsatisfiableDemandRejected(t *testing.T) {
	c, _ := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 2, GPUType: "P100"},
	)
	cases := []struct {
		name string
		spec GangSpec
		ok   bool
	}{
		{"fits", GangSpec{Name: "a", Members: 2, GPUsPerMember: 1, GPUType: "K80"}, true},
		{"exceeds-total", GangSpec{Name: "b", Members: 3, GPUsPerMember: 1, GPUType: "K80"}, false},
		{"member-too-big-for-any-node", GangSpec{Name: "c", Members: 1, GPUsPerMember: 3}, false},
		{"wrong-type-capacity-excluded", GangSpec{Name: "d", Members: 2, GPUsPerMember: 1, GPUType: "V100"}, false},
		{"untyped-uses-all-nodes", GangSpec{Name: "e", Members: 4, GPUsPerMember: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.SubmitGang(tc.spec)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("unsatisfiable gang accepted")
				}
				if !errors.Is(err, ErrGangUnsatisfiable) {
					t.Fatalf("error = %v, want ErrGangUnsatisfiable", err)
				}
			}
		})
	}
}

func TestGangPodsBindToReservation(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	g, err := c.SubmitGang(GangSpec{Name: "g", Members: 2, GPUsPerMember: 3, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if g.State() != GangAdmitted {
		t.Fatalf("state = %v", g.State())
	}
	for i := 0; i < 2; i++ {
		if _, err := c.CreatePod(memberSpec("g", i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	waitPhase(t, c, clk, "g-0", PodRunning, 30*time.Second)
	waitPhase(t, c, clk, "g-1", PodRunning, 30*time.Second)
	// The members landed on the reserved nodes, one per node.
	res := g.NodeReservations()
	for _, p := range c.Pods(map[string]string{"gang": "g"}) {
		if res[p.NodeName()] != 3 {
			t.Fatalf("pod %s on %s, reservations %v", p.Name(), p.NodeName(), res)
		}
	}
	// A non-gang pod cannot take the reserved (but idle-unbound) capacity:
	// only 1 GPU per node remains truly free.
	big := sleeperSpec("intruder", time.Hour, 0)
	big.GPUs = 2
	p, err := c.CreatePod(big)
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(3 * time.Second)
	if p.Phase() != PodPending {
		t.Fatalf("intruder phase = %v, want Pending against reservation", p.Phase())
	}
}

// TestMixedWorkloadLivelockVsGang is the acceptance demonstration: a
// mixed workload whose members rendezvous (hold their GPUs until every
// peer has started) deadlocks under per-pod placement but completes
// under gang scheduling.
func TestMixedWorkloadLivelockVsGang(t *testing.T) {
	nodes := []NodeSpec{
		{Name: "n1", GPUs: 4, GPUType: "K80"},
		{Name: "n2", GPUs: 4, GPUType: "K80"},
	}
	// Two 4-member jobs with mixed member sizes (2,2,1,1 GPUs): each
	// needs 6 of the 8 GPUs, so only one can run at a time. Each member
	// registers its start on a monotone counter and holds its GPUs until
	// every peer of its job has registered — an MPI-style rendezvous.
	memberGPUs := [4]int{2, 2, 1, 1}
	type rendezvous struct{ started [2]int32 }
	rdv := func(r *rendezvous, job int) ProcessFunc {
		return func(ctx *ContainerCtx) int {
			atomic.AddInt32(&r.started[job], 1)
			for atomic.LoadInt32(&r.started[job]) < 4 {
				if !ctx.Sleep(200 * time.Millisecond) {
					return 137
				}
			}
			return 0
		}
	}
	jobs := []string{"joba", "jobb"}
	makePod := func(c *Cluster, r *rendezvous, job, member int, gang string) {
		spec := PodSpec{
			Name:          fmt.Sprintf("%s-%d", jobs[job], member),
			Gang:          gang,
			GPUs:          memberGPUs[member],
			GPUType:       "K80",
			RestartPolicy: RestartNever,
			Labels:        map[string]string{"job": jobs[job]},
			Containers: []ContainerSpec{{
				Name: "m", StartDelay: 10 * time.Millisecond, Run: rdv(r, job),
			}},
		}
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
	}
	allDone := func(c *Cluster, clk *clock.Sim, timeout time.Duration) bool {
		deadline := clk.Now().Add(timeout)
		for clk.Now().Before(deadline) {
			done := 0
			for _, j := range jobs {
				if len(c.Pods(map[string]string{"job": j})) == 0 {
					done++ // all members Succeeded and forgotten
				}
			}
			if done == len(jobs) {
				return true
			}
			clk.Sleep(time.Second)
		}
		return false
	}

	// Per-pod placement (seed behavior): the 2-GPU members of both jobs
	// interleave onto the nodes and exhaust capacity, the 1-GPU members
	// never place, and neither rendezvous completes — deadlock.
	c1, clk1 := newGangCluster(t, Config{}, nodes...)
	var r1 rendezvous
	for member := 0; member < 2; member++ { // a0,b0 then a1,b1: 8 GPUs gone
		for job := range jobs {
			makePod(c1, &r1, job, member, "")
			waitPhase(t, c1, clk1, fmt.Sprintf("%s-%d", jobs[job], member), PodRunning, 30*time.Second)
		}
	}
	for member := 2; member < 4; member++ {
		for job := range jobs {
			makePod(c1, &r1, job, member, "")
		}
	}
	if allDone(c1, clk1, time.Minute) {
		t.Fatal("per-pod placement unexpectedly completed the contended workload")
	}

	// Gang scheduling, same interleaved workload: jobs admit
	// whole-or-not, so they serialize and both finish.
	c2, clk2 := newGangCluster(t, Config{}, nodes...)
	var r2 rendezvous
	for job := range jobs {
		if _, err := c2.SubmitGang(GangSpec{
			Name: "gang-" + jobs[job], Tenant: jobs[job], Members: 4, GPUsPerMember: 2, GPUType: "K80",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for member := 0; member < 4; member++ {
		for job := range jobs {
			makePod(c2, &r2, job, member, "gang-"+jobs[job])
		}
	}
	// Member pods exit but gangs hold their reservation until cancelled;
	// cancel each gang as its job drains so the next can admit.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, job := range jobs {
				if len(c2.Pods(map[string]string{"job": job})) == 0 {
					c2.CancelGang("gang-" + job)
				}
			}
			clk2.Sleep(500 * time.Millisecond)
		}
	}()
	if !allDone(c2, clk2, 5*time.Minute) {
		t.Fatal("gang scheduling did not complete the contended workload")
	}
}

func TestGangPriorityOrder(t *testing.T) {
	c, _ := newGangCluster(t, Config{}, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	// Fill the node so submissions queue.
	blocker, err := c.SubmitGang(GangSpec{Name: "blocker", Priority: 5, Members: 1, GPUsPerMember: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blocker.State() != GangAdmitted {
		t.Fatal("blocker not admitted")
	}
	low, _ := c.SubmitGang(GangSpec{Name: "low", Priority: 1, Members: 1, GPUsPerMember: 4})
	high, _ := c.SubmitGang(GangSpec{Name: "high", Priority: 3, Members: 1, GPUsPerMember: 4})
	// Same priority as low, later arrival: FIFO within a level.
	low2, _ := c.SubmitGang(GangSpec{Name: "low2", Priority: 1, Members: 1, GPUsPerMember: 4})

	c.CancelGang("blocker")
	if high.State() != GangAdmitted {
		t.Fatalf("high = %v, want Admitted first", high.State())
	}
	if low.State() != GangPending || low2.State() != GangPending {
		t.Fatal("low-priority gangs admitted out of order")
	}
	c.CancelGang("high")
	if low.State() != GangAdmitted {
		t.Fatalf("low = %v, want Admitted before low2 (FIFO)", low.State())
	}
	if low2.State() != GangPending {
		t.Fatal("low2 jumped the FIFO order")
	}
}

func TestPreemptionEvictsLowestPriorityFirst(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	mkGang := func(name string, prio, members, gpus int) *Gang {
		g, err := c.SubmitGang(GangSpec{Name: name, Tenant: name, Priority: prio, Members: members, GPUsPerMember: gpus, GPUType: "K80"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < members; i++ {
			if _, err := c.CreatePod(memberSpec(name, i, gpus)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	lo := mkGang("lo", 1, 4, 1)   // 4 GPUs
	mid := mkGang("mid", 2, 4, 1) // 4 GPUs; cluster now full
	for i := 0; i < 4; i++ {
		waitPhase(t, c, clk, fmt.Sprintf("lo-%d", i), PodRunning, 30*time.Second)
		waitPhase(t, c, clk, fmt.Sprintf("mid-%d", i), PodRunning, 30*time.Second)
	}

	// A high-priority 4-GPU gang preempts exactly the lowest-priority
	// victim (lo), leaving mid running.
	hi, err := c.SubmitGang(GangSpec{Name: "hi", Tenant: "hi", Priority: 9, Members: 4, GPUsPerMember: 1, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	waitGangState(t, clk, lo, GangPreempted, 10*time.Second)
	if mid.State() != GangAdmitted {
		t.Fatalf("mid = %v, want to survive preemption", mid.State())
	}
	waitGangState(t, clk, hi, GangAdmitted, 30*time.Second)
	select {
	case <-lo.Evicted():
	default:
		t.Fatal("lo.Evicted() not closed")
	}
}

func TestPreemptionSparesHigherAndEqualPriority(t *testing.T) {
	c, clk := newGangCluster(t, Config{}, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	eq, err := c.SubmitGang(GangSpec{Name: "eq", Priority: 5, Members: 1, GPUsPerMember: 4})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.SubmitGang(GangSpec{Name: "hi", Priority: 5, Members: 1, GPUsPerMember: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(5 * time.Second)
	if eq.State() != GangAdmitted || hi.State() != GangPending {
		t.Fatalf("eq = %v hi = %v: equal priority must never preempt", eq.State(), hi.State())
	}
}

func TestPreemptionTenantAware(t *testing.T) {
	// Two priority-1 gangs from different tenants; tenant "hog" holds
	// more of the cluster. The hog's gang is evicted first.
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	mk := func(name, tenant string, members int) *Gang {
		g, err := c.SubmitGang(GangSpec{Name: name, Tenant: tenant, Priority: 1, Members: members, GPUsPerMember: 1, GPUType: "K80"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < members; i++ {
			if _, err := c.CreatePod(memberSpec(name, i, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	hogA := mk("hog-a", "hog", 3)
	hogB := mk("hog-b", "hog", 3) // tenant hog holds 6 GPUs
	small := mk("small", "modest", 2)
	for _, g := range []*Gang{hogA, hogB, small} {
		waitGangState(t, clk, g, GangAdmitted, 10*time.Second)
	}
	clk.Sleep(2 * time.Second)

	// Needs 3 GPUs: one hog gang suffices; the modest tenant survives.
	hi, err := c.SubmitGang(GangSpec{Name: "hi", Tenant: "vip", Priority: 9, Members: 3, GPUsPerMember: 1, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	waitGangState(t, clk, hi, GangAdmitted, 30*time.Second)
	if small.State() != GangAdmitted {
		t.Fatalf("modest tenant's gang = %v, want to survive while the hog pays", small.State())
	}
	if hogA.State() == GangAdmitted && hogB.State() == GangAdmitted {
		t.Fatal("no hog gang was preempted")
	}
}

func TestBackfillFillsFragmentationHoles(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 6, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 6, GPUType: "K80"},
	)
	// Occupy n1 fully (6) and n2 partially (2): free = 4 on n2.
	blocker, err := c.SubmitGang(GangSpec{Name: "blocker", Priority: 5, Members: 4, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if blocker.State() != GangAdmitted {
		t.Fatal("blocker not admitted")
	}
	// Head: 2 members x 4 GPUs = 8; only floor(4/4)=1 member placeable,
	// so it waits.
	head, err := c.SubmitGang(GangSpec{Name: "head", Priority: 5, Members: 2, GPUsPerMember: 4, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if head.State() != GangPending {
		t.Fatalf("head = %v, want Pending", head.State())
	}
	// free on n2 = 4, head member size 4 -> remainder 4%4 = 0: a 1-GPU
	// job would eat head-useful capacity and must NOT backfill.
	greedy, err := c.SubmitGang(GangSpec{Name: "greedy", Priority: 1, Members: 1, GPUsPerMember: 1, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(2 * time.Second)
	if greedy.State() != GangPending {
		t.Fatalf("greedy = %v, want Pending (would shrink head's hole)", greedy.State())
	}
	// Open a true fragmentation hole: releasing the blocker frees 6+2;
	// head takes 4+4, leaving 2+0... instead, shrink head demand: cancel
	// head, re-submit workload where remainder exists.
	c.CancelGang("blocker")
	waitGangState(t, clk, head, GangAdmitted, 10*time.Second)
	// Now free = 2 on n1, 2 on n2. New head: 1 member x 4 -> waits;
	// remainder on each node = 2 % 4 = 2: a 2-GPU small job backfills.
	head2, err := c.SubmitGang(GangSpec{Name: "head2", Priority: 5, Members: 1, GPUsPerMember: 4, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if head2.State() != GangPending {
		t.Fatalf("head2 = %v, want Pending", head2.State())
	}
	// greedy reached the head of the queue when the blocker freed
	// capacity, so it admitted normally — backfill denial only protects
	// the current head.
	if greedy.State() != GangAdmitted {
		t.Fatalf("greedy = %v, want Admitted once it became schedulable", greedy.State())
	}
	small, err := c.SubmitGang(GangSpec{Name: "small", Priority: 1, Members: 1, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if small.State() != GangAdmitted {
		t.Fatalf("small = %v, want backfilled into the 2-GPU hole", small.State())
	}
	if head2.State() != GangPending {
		t.Fatalf("head2 = %v, want still Pending after backfill", head2.State())
	}
}

func TestGangNodeFailureRepairsOnSpare(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n3", GPUs: 2, GPUType: "K80"},
	)
	g, err := c.SubmitGang(GangSpec{Name: "g", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.CreatePod(memberSpec("g", i, 2)); err != nil {
			t.Fatal(err)
		}
		waitPhase(t, c, clk, fmt.Sprintf("g-%d", i), PodRunning, 30*time.Second)
	}
	var deadNode string
	for _, p := range c.Pods(map[string]string{"gang": "g"}) {
		if p.Name() == "g-1" {
			deadNode = p.NodeName()
		}
	}
	if err := c.CrashNode(deadNode); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	// The reservation migrated to the spare node; a recreated member
	// binds there.
	if g.Degraded() {
		t.Fatal("gang still degraded despite spare capacity")
	}
	if _, err := c.CreatePod(memberSpec("g", 1, 2)); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, c, clk, "g-1", PodRunning, 30*time.Second)
	repl := c.Pod("g-1")
	if repl.NodeName() == deadNode {
		t.Fatalf("replacement landed on the dead node %s", deadNode)
	}
}

func TestGangDegradedWithoutSpareThenRepairs(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 2, GPUType: "K80"},
	)
	g, err := c.SubmitGang(GangSpec{Name: "g", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode("n2"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	if !g.Degraded() {
		t.Fatalf("gang not degraded after losing half its reservation (state %v)", g.State())
	}
	if err := c.RestartNode("n2"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	if g.Degraded() {
		t.Fatal("gang not repaired after node restart")
	}
	total := 0
	for _, k := range g.NodeReservations() {
		total += k
	}
	if total != 4 {
		t.Fatalf("reservation after repair = %d GPUs, want 4 (%v)", total, g.NodeReservations())
	}
}

// TestRepairMigratesInNodeNameOrder: when two cordoned nodes hold idle
// reservation and the spare fits only one member, the lowest-named
// node's reservation is the one that moves, on every run.
func TestRepairMigratesInNodeNameOrder(t *testing.T) {
	want := map[string]int{"n2": 2, "n3": 2}
	for run := 0; run < 20; run++ {
		c, _ := newManualCluster(t,
			NodeSpec{Name: "n1", GPUs: 2, GPUType: "K80"},
			NodeSpec{Name: "n2", GPUs: 2, GPUType: "K80"},
			NodeSpec{Name: "n3", GPUs: 2, GPUType: "K80"},
		)
		g, err := c.SubmitGang(GangSpec{Name: "g", Members: 2, GPUsPerMember: 2, GPUType: "K80"})
		if err != nil {
			t.Fatal(err)
		}
		if res := g.NodeReservations(); res["n1"] != 2 || res["n2"] != 2 {
			t.Fatalf("run %d: admitted over %v, want n1 and n2", run, res)
		}
		for _, n := range []string{"n1", "n2"} {
			if err := c.CordonNode(n); err != nil {
				t.Fatal(err)
			}
		}
		// n3 is already schedulable: uncordoning it only runs a pass.
		if err := c.UncordonNode("n3"); err != nil {
			t.Fatal(err)
		}
		if got := g.NodeReservations(); !maps.Equal(got, want) {
			t.Fatalf("run %d: reservations after repair = %v, want %v", run, got, want)
		}
	}
}

func TestCancelGangKillsMembersAndFreesCapacity(t *testing.T) {
	c, clk := newGangCluster(t, Config{}, NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"})
	if _, err := c.SubmitGang(GangSpec{Name: "g", Members: 2, GPUsPerMember: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.CreatePod(memberSpec("g", i, 2)); err != nil {
			t.Fatal(err)
		}
		waitPhase(t, c, clk, fmt.Sprintf("g-%d", i), PodRunning, 30*time.Second)
	}
	c.CancelGang("g")
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		if len(c.Pods(map[string]string{"gang": "g"})) == 0 && c.FreeGPUs("") == 4 {
			if c.GangByName("g") != nil {
				t.Fatal("cancelled gang still registered")
			}
			return
		}
		clk.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("capacity not reclaimed: free=%d pods=%d", c.FreeGPUs(""), len(c.Pods(map[string]string{"gang": "g"})))
}

// Table-driven check of the pending-queue ordering invariants.
func TestGangQueueOrdering(t *testing.T) {
	mk := func(prio int, seq uint64) *Gang {
		return &Gang{Spec: GangSpec{Name: fmt.Sprintf("g%d-%d", prio, seq), Priority: prio}, seq: seq}
	}
	cases := []struct {
		name string
		in   []*Gang
		want []string
	}{
		{"priority-desc", []*Gang{mk(1, 1), mk(5, 2), mk(3, 3)}, []string{"g5-2", "g3-3", "g1-1"}},
		{"fifo-within-level", []*Gang{mk(2, 3), mk(2, 1), mk(2, 2)}, []string{"g2-1", "g2-2", "g2-3"}},
		{"mixed", []*Gang{mk(0, 1), mk(9, 2), mk(0, 3), mk(9, 4)}, []string{"g9-2", "g9-4", "g0-1", "g0-3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q gangQueue
			for _, g := range tc.in {
				q.push(g)
			}
			for i, want := range tc.want {
				if got := q.at(i).Spec.Name; got != want {
					t.Fatalf("queue[%d] = %s, want %s", i, got, want)
				}
			}
			head := q.head()
			if !q.remove(head) {
				t.Fatal("remove(head) failed")
			}
			if q.len() != len(tc.want)-1 {
				t.Fatalf("len after remove = %d", q.len())
			}
		})
	}
}
