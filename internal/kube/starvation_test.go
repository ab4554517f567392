package kube

import (
	"fmt"
	"testing"
	"time"
)

// TestBackfillStreamDoesNotStarveLargeGang is the backfill-starvation
// chaos scenario: a continuous stream of small, short-lived backfill
// gangs must not indefinitely delay a large gang waiting at the head of
// the queue. Every gang has one priority, so preemption (which evicts
// only strictly lower priorities) cannot clear the head's way: only the
// backfill budget can.
//
// The hazard: every time an earlier backfill gang releases its GPU, the
// momentary fragmentation remainder invites the next small gang in, and
// the node oscillates below a full head-member slot forever. The
// per-node backfill budget (capacity % head member size, net of what
// backfilled gangs already hold) closes that loop; this test drives the
// stream through many churn rounds and requires the head to admit while
// the stream is still flowing.
func TestBackfillStreamDoesNotStarveLargeGang(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 5, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 5, GPUType: "K80"},
		NodeSpec{Name: "n3", GPUs: 5, GPUType: "K80"},
		NodeSpec{Name: "n4", GPUs: 5, GPUType: "K80"},
	)

	// Initial occupants: one 3-GPU gang per node (bin-pack fits only one
	// on a 5-GPU node), so every node has a 2-GPU remainder and the head
	// cannot fit until they finish.
	var occupants []*Gang
	for i := 0; i < 4; i++ {
		g, err := c.SubmitGang(GangSpec{
			Name: fmt.Sprintf("occ-%d", i), Tenant: "batch",
			Members: 1, GPUsPerMember: 3, GPUType: "K80",
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.State() != GangAdmitted {
			t.Fatalf("occupant %d not admitted", i)
		}
		occupants = append(occupants, g)
	}
	for i, g := range occupants {
		if res := g.NodeReservations(); res[fmt.Sprintf("n%d", i+1)] != 3 {
			t.Fatalf("occupant %d reservations = %v, want 3 GPUs on n%d", i, res, i+1)
		}
	}

	// The large gang: 4 members x 4 GPUs needs 4 free GPUs on every node;
	// it must wait.
	head, err := c.SubmitGang(GangSpec{
		Name: "big", Tenant: "vip",
		Members: 4, GPUsPerMember: 4, GPUType: "K80",
	})
	if err != nil {
		t.Fatal(err)
	}
	if head.State() != GangPending {
		t.Fatalf("head = %v, want Pending behind occupants", head.State())
	}

	// Drive the backfill stream: a new 1-GPU gang every 200ms, each
	// living ~400ms. Occupants finish early on; the stream keeps churning
	// well past that.
	type bf struct {
		g    *Gang
		born time.Time
	}
	var live []bf
	backfilledEver := 0
	admittedAt := time.Time{}
	const rounds = 60
	for r := 0; r < rounds; r++ {
		if r == 5 {
			for _, occ := range occupants {
				c.CancelGang(occ.Spec.Name)
			}
		}
		g, err := c.SubmitGang(GangSpec{
			Name: fmt.Sprintf("bf-%02d", r), Tenant: "stream",
			Members: 1, GPUsPerMember: 1, GPUType: "K80",
		})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, bf{g: g, born: clk.Now()})
		// Retire stream gangs after their short runtime.
		keep := live[:0]
		for _, b := range live {
			if clk.Since(b.born) >= 400*time.Millisecond {
				if b.g.State() == GangAdmitted {
					backfilledEver++
				}
				c.CancelGang(b.g.Spec.Name)
			} else {
				keep = append(keep, b)
			}
		}
		live = keep
		clk.Sleep(200 * time.Millisecond)
		if admittedAt.IsZero() && head.State() == GangAdmitted {
			admittedAt = clk.Now()
		}
	}

	if admittedAt.IsZero() {
		t.Fatalf("large gang starved: still %v after %d stream rounds", head.State(), rounds)
	}
	if backfilledEver == 0 {
		t.Fatal("no stream gang ever backfilled: the scenario did not exercise backfill")
	}
	// The head admitted promptly once the occupants drained (round 5),
	// not merely at the tail of the run.
	if wait := head.PlacementLatency(); wait > 20*time.Second {
		t.Fatalf("head waited %v despite capacity draining at ~1s", wait)
	}
	// Even with the head admitted and holding 16 of 20 GPUs, the stream
	// keeps fitting into the true remainder — backfill is budgeted, not
	// disabled.
	deadline := clk.Now().Add(10 * time.Second)
	streamStillAdmits := false
	for clk.Now().Before(deadline) && !streamStillAdmits {
		g, err := c.SubmitGang(GangSpec{
			Name: fmt.Sprintf("bf-late-%d", clk.Now().UnixNano()), Tenant: "stream",
			Members: 1, GPUsPerMember: 1, GPUType: "K80",
		})
		if err != nil {
			t.Fatal(err)
		}
		clk.Sleep(300 * time.Millisecond)
		streamStillAdmits = g.State() == GangAdmitted
		c.CancelGang(g.Spec.Name)
	}
	if !streamStillAdmits {
		t.Fatal("small gangs no longer admit after the head placed (over-reservation)")
	}
}

// TestBackfillBudgetBoundsHoldings pins the budget arithmetic directly:
// with a waiting head of member size 4 on 5-GPU nodes, at most
// 5 % 4 = 1 GPU per node is ever held by backfilled gangs, no matter how
// many small gangs are queued. Every gang has one priority, so nothing is
// preempted.
func TestBackfillBudgetBoundsHoldings(t *testing.T) {
	c, clk := newGangCluster(t, Config{},
		NodeSpec{Name: "n1", GPUs: 5, GPUType: "K80"},
		NodeSpec{Name: "n2", GPUs: 5, GPUType: "K80"},
	)
	// Bin-pack fits one 3-GPU member per 5-GPU node: 2 free on each.
	blocker, err := c.SubmitGang(GangSpec{
		Name: "blocker", Members: 2, GPUsPerMember: 3, GPUType: "K80",
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocker.State() != GangAdmitted {
		t.Fatal("blocker not admitted")
	}
	head, err := c.SubmitGang(GangSpec{
		Name: "head", Members: 2, GPUsPerMember: 4, GPUType: "K80",
	})
	if err != nil {
		t.Fatal(err)
	}
	if head.State() != GangPending {
		t.Fatalf("head = %v, want Pending", head.State())
	}
	// Flood with 1-GPU gangs: free is 2 per node, but the budget admits
	// only one per node (5 % 4 = 1).
	admitted := 0
	for i := 0; i < 6; i++ {
		g, err := c.SubmitGang(GangSpec{
			Name: fmt.Sprintf("s-%d", i), Members: 1, GPUsPerMember: 1, GPUType: "K80",
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.State() == GangAdmitted {
			admitted++
		}
	}
	clk.Sleep(time.Second)
	if admitted != 2 {
		t.Fatalf("backfilled %d small gangs, want exactly 2 (one per node's remainder)", admitted)
	}
	// Once the blocker drains, the head admits despite the flood.
	c.CancelGang("blocker")
	waitGangState(t, clk, head, GangAdmitted, 10*time.Second)
}
