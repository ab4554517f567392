package dlaas

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// fleetInstantBudget is the ceiling on virtual instants per job for the
// fixed fleet below: the 116–117 it measures with the helper and Guardian
// waits gated on change (clock.SleepUntil), the metadata store's
// heartbeat following its log (raft's idle cadence), a training chunk's
// progress write and metric point sharing the chunk's one sleep and each
// learner lifecycle report landing as one nfs.Volume.Compound, an API
// call paying both its legs in one sleep (rpc.Bus.Call), a read call's
// legs riding its MongoDB read (rpc.Bus.Register,
// mongo.Collection.FindID), the Guardian journaling a deployment only
// when it starts and when it is done and its watch cursor once, a
// finished job's keys deleted in one Txn (guardian.DeleteKeys), each
// helper pass reading its files in one round trip
// (nfs.Volume.ReadCompound) and a deploy attempt one MongoDB write
// (core.Deps.BeginDeployAttempt), plus 15 %. With the cursor journaled
// per event batch, a round trip per helper read and two writes per
// deploy attempt it measured 127; with a journal save
// between deploy steps and one Delete per key, 141–142; with
// a Status call's read an instant of its own after the legs, 145–151;
// with a call's
// reply leg a sleep of its own and a report's status write, log line and
// exit code a round trip each, 165–167; with each chunk's two reports
// paying a round trip of their own, 169–172; with the store heartbeating
// every 50 ms whatever was asked of it, 266–271; with the poll loops also
// waking on every tick of their cadence, 354–360.
const fleetInstantBudget = 135

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
		t.Errorf("%d virtual instants per job, budget %d: is a poll loop waking on ticks that can learn nothing (see clock.SleepUntil), the store heartbeating through a settled spell (internal/raft/cadence.go), or a call or report paying a leg in a sleep of its own (rpc.Bus.Call, rpc.Bus.Register's read methods, nfs.Volume.Compound)?", perJob, fleetInstantBudget)
	}
	if !raceEnabled && objects > fleetAllocBudget {
		t.Errorf("%d heap objects per job, budget %d: does a loop build a path, key or encoding on every pass that it could build once (see learner.FilesOf, events.Envelope.Append, the Guardian's journal.appendJSON), or a read copy a document MongoDB shares (mongo.Document)?", objects, fleetAllocBudget)
	}
}

// manualPlatform boots a platform on a manual clock, which moves only
// while every goroutine is blocked (clocktest.Run), so that a test can
// count the instants of one call exactly. It must not run beside
// parallel tests.
func manualPlatform(t *testing.T) (*Platform, *clock.Sim) {
	t.Helper()
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	var p *Platform
	onClock(t, clk, 2*time.Minute, func() {
		var err error
		if p, err = New(Options{Clock: clk, Nodes: 1, GPUsPerNode: 1, Seed: 7}); err != nil {
			t.Error(err)
		}
	})
	if p == nil {
		t.FailNow()
	}
	t.Cleanup(func() { onClock(t, clk, time.Minute, p.Close) })
	return p, clk
}

// onClock runs f on its own goroutine and steps clk until f returns,
// failing the test if it has not within limit of virtual time.
func onClock(t *testing.T, clk *clock.Sim, limit time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	for deadline := clk.Now().Add(limit); ; {
		select {
		case <-done:
			return
		default:
		}
		if !clk.Now().Before(deadline) {
			t.Fatalf("still running after %v of virtual time", limit)
		}
		clocktest.Run(clk, 10*time.Millisecond)
	}
}

// quietFor steps clk, an instant at a time, to an instant after which
// nothing is due for longer than d: a call started there has the clock
// to itself until d has passed.
func quietFor(clk *clock.Sim, d time.Duration) {
	for {
		clocktest.Run(clk, 0)
		next, ok := clk.NextDeadline()
		if !ok || next.Sub(clk.Now()) > d {
			return
		}
		clocktest.Run(clk, next.Sub(clk.Now()))
	}
}

// TestAPICallInstants pins what a tenant's API calls cost on the virtual
// timeline. Submit is not a read: it records the job at the reply's
// instant, both legs into the call. Status is a read: its RPC legs ride
// its MongoDB read, so the call fires one instant and returns legs + read
// (1.5 ms) after it starts, and the API still meters the read's 500 µs.
func TestAPICallInstants(t *testing.T) {
	const legs, read = time.Millisecond, 500 * time.Microsecond
	p, clk := manualPlatform(t)
	client := p.Client("alice")
	var m *Manifest
	onClock(t, clk, time.Minute, func() { m = testManifest(t, p, "alice", 1) })

	start := clk.Now()
	var id string
	onClock(t, clk, time.Minute, func() {
		var err error
		if id, err = client.Submit(m); err != nil {
			t.Error(err)
		}
	})
	if id == "" {
		t.FailNow()
	}
	var rec JobRecord
	onClock(t, clk, time.Minute, func() {
		var err error
		if rec, err = client.Status(id); err != nil {
			t.Error(err)
		}
	})
	if got := rec.SubmittedAt.Sub(start); got != legs {
		t.Errorf("Submit recorded the job %v into the call, want at the reply's instant, %v", got, legs)
	}

	quietFor(clk, legs+read)
	start, before := clk.Now(), clk.Instants()
	type status struct {
		at  time.Time
		err error
	}
	done := make(chan status, 1)
	go func() {
		_, err := client.Status(id)
		done <- status{clk.Now(), err}
	}()
	clocktest.Run(clk, legs+read)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got := r.at.Sub(start); got != legs+read {
			t.Errorf("Status returned %v after it started, want %v", got, legs+read)
		}
	default:
		t.Fatalf("Status had not returned %v after it started", legs+read)
	}
	if got := clk.Instants() - before; got != 1 {
		t.Errorf("Status fired %d instants, want 1", got)
	}
	// The server times a read from the instant its legs end.
	if st := p.Metrics().Histogram("api_latency", "status"); st.Count != 2 || st.Mean != read {
		t.Errorf("api_latency for status: %d samples of mean %v, want 2 of %v", st.Count, st.Mean, read)
	}
}
