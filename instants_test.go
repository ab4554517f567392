package dlaas

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// fleetInstantBudget is the ceiling on virtual instants per job for the
// fixed fleet below: the 170–172 it measures with the helper and
// Guardian waits gated on change (clock.SleepUntil) and the metadata
// store's heartbeat following its log (raft's idle cadence), plus 15 %.
// With the store heartbeating every 50 ms whatever was asked of it, it
// measured 266–271; with the poll loops also waking on every tick of
// their cadence, 354–360.
const fleetInstantBudget = 198

// TestFleetInstantBudget runs a small fixed fleet — sixteen one-learner
// jobs, submitted together on GPUs enough for all, so that what each job
// polls outweighs the metadata store's heartbeat — and bounds the virtual
// instants it costs per job. Under the idle-advance clock every
// instant is a fixed slice of wall time whatever happens in it, so a
// loop that wakes on a cadence to find nothing new shows up here, as a
// count that does not depend on how fast the machine is (it reads the
// same beside the other platform tests and under the race detector).
func TestFleetInstantBudget(t *testing.T) {
	t.Parallel()
	p := newTestPlatform(t, Options{Nodes: 4, GPUsPerNode: 4, Seed: 7})
	sim, ok := p.Clock().(*clock.Sim)
	if !ok {
		t.Fatalf("platform clock is %T, want the virtual clock", p.Clock())
	}
	const jobs = 16
	start := sim.Instants()
	clients, ids := make([]*Client, jobs), make([]string, jobs)
	for i := range ids {
		tenant := fmt.Sprintf("team-%d", i)
		clients[i] = p.Client(tenant)
		m := testManifest(t, p, tenant, 1)
		m.DatasetImages = 64
		id, err := clients[i].Submit(m)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if rec, err := clients[i].WaitForState(id, StateCompleted, time.Hour); err != nil {
			t.Fatalf("job %s: %v (state %s, reason %q)", id, err, rec.State, rec.Reason)
		}
	}
	perJob := (sim.Instants() - start) / jobs
	t.Logf("%d instants per job (budget %d)", perJob, fleetInstantBudget)
	if perJob > fleetInstantBudget {
		t.Errorf("%d virtual instants per job, budget %d: is a poll loop waking on ticks that can learn nothing (see clock.SleepUntil), or the store heartbeating through a settled spell (internal/raft/cadence.go)?", perJob, fleetInstantBudget)
	}
}
