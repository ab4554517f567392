package dlaas

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// fleetInstantBudget is the ceiling on virtual instants per job for the
// fixed fleet below: the 151–153 it measures with the helper and
// Guardian waits gated on change (clock.SleepUntil), the metadata
// store's heartbeat following its log (raft's idle cadence), a training
// chunk's progress write and metric point sharing the chunk's one sleep
// and each learner lifecycle report landing as one nfs.Volume.Compound,
// and an API call paying both its legs in one sleep (rpc.Bus.Call), plus
// 15 %. With a call's reply leg a sleep of its own and a report's status
// write, log line and exit code a round trip each, it measured 165–167;
// with each chunk's two reports paying a round trip of their own,
// 169–172; with the store heartbeating every 50 ms whatever was asked of
// it, 266–271; with the poll loops also waking on every tick of their
// cadence, 354–360.
const fleetInstantBudget = 176

// fleetAllocBudget is the ceiling on heap objects per job for the same
// fleet: the 615–618 it measures in a fresh process, plus 10 %. With a
// pod's goroutine waiting on two WaitGroups and a start waiter beside its
// supervisors, every span wrapped in a handle of its own and each job
// deployed twice, it measured 726–734 (the budget was then 950); with the
// job documents encoded by reflection, 835–867; with MongoDB deep-copying
// every document it stored and returned, the Guardian journal encoded by
// reflection and a pod's containers in a map, 990–1 001; before the job
// path built its paths and keys once, appended history instead of
// re-encoding it and coded envelopes without reflection, 1 440–1 477.
const fleetAllocBudget = 680

// TestFleetInstantBudget runs a small fixed fleet — sixteen one-learner
// jobs, submitted together on GPUs enough for all, so that what each job
// polls outweighs the metadata store's heartbeat — and bounds the virtual
// instants and the heap objects it costs per job. Under the idle-advance
// clock every instant is a fixed slice of wall time whatever happens in
// it, so a loop that wakes on a cadence to find nothing new shows up
// here, as a count that does not depend on how fast the machine is (it
// reads the same under the race detector). The objects are what the
// platform allocates on a job's trip through the control plane. They are
// read from the process-wide runtime.MemStats.Mallocs, so the test does
// not run in parallel with the others.
func TestFleetInstantBudget(t *testing.T) {
	p := newTestPlatform(t, Options{Nodes: 4, GPUsPerNode: 4, Seed: 7})
	sim, ok := p.Clock().(*clock.Sim)
	if !ok {
		t.Fatalf("platform clock is %T, want the virtual clock", p.Clock())
	}
	const jobs = 16
	clients, manifests := make([]*Client, jobs), make([]*Manifest, jobs)
	for i := range clients {
		tenant := fmt.Sprintf("team-%d", i)
		clients[i] = p.Client(tenant)
		manifests[i] = testManifest(t, p, tenant, 1)
		manifests[i].DatasetImages = 64
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start, mallocs := sim.Instants(), ms.Mallocs
	ids := make([]string, jobs)
	for i := range ids {
		id, err := clients[i].Submit(manifests[i])
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
	runtime.ReadMemStats(&ms)
	objects := (ms.Mallocs - mallocs) / jobs
	t.Logf("%d instants per job (budget %d), %d objects per job (budget %d)", perJob, fleetInstantBudget, objects, fleetAllocBudget)
	if perJob > fleetInstantBudget {
		t.Errorf("%d virtual instants per job, budget %d: is a poll loop waking on ticks that can learn nothing (see clock.SleepUntil), the store heartbeating through a settled spell (internal/raft/cadence.go), or a call or report paying a leg in a sleep of its own (rpc.Bus.Call, nfs.Volume.Compound)?", perJob, fleetInstantBudget)
	}
	if !raceEnabled && objects > fleetAllocBudget {
		t.Errorf("%d heap objects per job, budget %d: does a loop build a path, key or encoding on every pass that it could build once (see learner.FilesOf, events.Envelope.Append, the Guardian's journal.appendJSON), or a read copy a document MongoDB shares (mongo.Document)?", objects, fleetAllocBudget)
	}
}
