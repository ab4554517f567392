package guardian

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/kube"
)

// recordEvents drains a watch on prefix, opened now, into a log the
// returned func snapshots, until the test ends.
func recordEvents(t *testing.T, s *etcd.Store, prefix string) func() []etcd.Event {
	t.Helper()
	ch, cancel := s.Watch(prefix)
	stop, stopped := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		cancel()
		close(stop)
		<-stopped
	})
	var mu sync.Mutex
	var log []etcd.Event
	go func() {
		defer close(stopped)
		for {
			select {
			case ev := <-ch:
				mu.Lock()
				log = append(log, ev)
				mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
	return func() []etcd.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]etcd.Event(nil), log...)
	}
}

// awaitEvents steps the clock until done holds of the recorded events,
// for at most a virtual minute, and returns them.
func awaitEvents(clk *clock.Sim, seen func() []etcd.Event, done func([]etcd.Event) bool) []etcd.Event {
	evs := seen()
	for deadline := clk.Now().Add(time.Minute); !done(evs) && clk.Now().Before(deadline); evs = seen() {
		clk.Sleep(100 * time.Millisecond)
	}
	return evs
}

// awaitGuardianExit steps the clock until the Guardian's pod has exited
// (and been forgotten): the job turns terminal before the Guardian cleans
// up its keys.
func awaitGuardianExit(t *testing.T, p Params, clk *clock.Sim) {
	t.Helper()
	for deadline := clk.Now().Add(time.Minute); clk.Now().Before(deadline); clk.Sleep(100 * time.Millisecond) {
		if pod := p.Deps.Kube.Pod(KubeJobName(p.JobID)); pod == nil || pod.Phase().Terminal() {
			return
		}
	}
	t.Fatal("the Guardian's pod did not exit within a minute of the job's end")
}

// TestFreshDeployJournalsTwice: a restart reads only whether the journal
// exists and whether it says Deployed, so a fresh deploy writes it twice
// — empty before the first resource, Deployed after the last — not once
// more per step.
func TestFreshDeployJournalsTwice(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateQueued)
	key := types.GuardianJournalKey(p.JobID)
	seen := recordEvents(t, d.Etcd, key)
	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED", state)
	}
	deployedPut := func(ev etcd.Event) bool {
		return ev.Type == etcd.EventPut && decodeJournal(ev.Value).Deployed
	}
	evs := awaitEvents(clk, seen, func(evs []etcd.Event) bool {
		for _, ev := range evs {
			if deployedPut(ev) {
				return true
			}
		}
		return false
	})
	before := 0
	for _, ev := range evs {
		if deployedPut(ev) {
			if before != 1 {
				t.Fatalf("%d journal Puts before the Deployed one, want 1: the empty in-progress journal", before)
			}
			if want := []string{"volume", "helper", "gang", "learners", "netpol"}; !slices.Equal(decodeJournal(ev.Value).Steps, want) {
				t.Errorf("Deployed journal lists steps %v, want %v", decodeJournal(ev.Value).Steps, want)
			}
			return
		}
		if ev.Type == etcd.EventPut {
			before++
		}
	}
	t.Fatalf("no Deployed journal among %d events on %s", len(evs), key)
}

// TestFinishedJobKeysGoInOneEntry: a finished job's coordination keys are
// deleted in one log entry, so every Delete under its prefix carries the
// same revision and no key outlives the Guardian.
func TestFinishedJobKeysGoInOneEntry(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateQueued)
	prefix := types.JobPrefix(p.JobID)
	seen := recordEvents(t, d.Etcd, prefix)
	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED", state)
	}
	awaitGuardianExit(t, p, clk)
	kvs, err := d.Etcd.Range(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) > 0 {
		t.Fatalf("%d keys left under %s after COMPLETED, first %q", len(kvs), prefix, kvs[0].Key)
	}
	// Every key ever put is gone, so each has its Delete on the feed.
	evs := awaitEvents(clk, seen, func(evs []etcd.Event) bool {
		live := map[string]bool{}
		for _, ev := range evs {
			live[ev.Key] = ev.Type == etcd.EventPut
		}
		for _, up := range live {
			if up {
				return false
			}
		}
		return true
	})
	revs := map[uint64]int{}
	for _, ev := range evs {
		if ev.Type == etcd.EventDelete {
			revs[ev.Rev]++
		}
	}
	if len(revs) != 1 {
		t.Fatalf("the job's Deletes landed at %d revisions (%v), want 1", len(revs), revs)
	}
}

// TestMonitorJournalsItsCursorOnce: a restart needs a cursor to resume
// from, not the newest, so a clean one-learner job journals three times —
// empty before the first resource, Deployed after the last, and the
// monitor's cursor when it first moves — however many event batches the
// monitor folds.
func TestMonitorJournalsItsCursorOnce(t *testing.T) {
	d, clk := newTestDeps(t)
	p := insertJob(t, d, types.StateQueued)
	key := types.GuardianJournalKey(p.JobID)
	seen := recordEvents(t, d.Etcd, key)
	if state := runGuardian(t, p, clk); state != types.StateCompleted {
		t.Fatalf("job ended %s, want COMPLETED", state)
	}
	awaitGuardianExit(t, p, clk)
	// The cleanup's Delete is the journal's last event.
	evs := awaitEvents(clk, seen, func(evs []etcd.Event) bool {
		return len(evs) > 0 && evs[len(evs)-1].Type == etcd.EventDelete
	})
	var puts []*journal
	for _, ev := range evs {
		if ev.Type == etcd.EventPut {
			puts = append(puts, decodeJournal(ev.Value))
		}
	}
	if len(puts) != 3 {
		t.Fatalf("%d journal Puts, want 3: empty, Deployed, and the first cursor", len(puts))
	}
	if puts[0].Deployed || !puts[1].Deployed || puts[1].MonitorRev != 0 || !puts[2].Deployed || puts[2].MonitorRev == 0 {
		t.Fatalf("journal Puts %+v, want empty, Deployed, then Deployed with a cursor", puts)
	}
	if n := d.Metrics.Counter("guardian_monitor_events"); n < 2 {
		t.Fatalf("the monitor folded %v status events, want several: the test needs batches after the first", n)
	}
}

// TestPreemptionClearsKeysInOneEntry: a gang eviction's cleanup — the
// journal, the eviction intent and the learners' acks — is one log entry
// on the redeploy's critical path, so every Delete under the job's prefix
// carries one revision.
func TestPreemptionClearsKeysInOneEntry(t *testing.T) {
	// Grace enough for a training chunk to end and the learner to ack.
	d, clk := newTestDepsGrace(t, 10*time.Minute)
	p := insertJob(t, d, types.StateQueued)
	p.Manifest.DatasetImages = 1 << 16 // trains well past the eviction
	seen := recordEvents(t, d.Etcd, types.JobPrefix(p.JobID))
	if _, err := d.Kube.CreatePod(kube.PodSpec{
		Name:          KubeJobName(p.JobID),
		RestartPolicy: kube.RestartNever,
		Containers:    []kube.ContainerSpec{ContainerSpec(p)},
	}); err != nil {
		t.Fatal(err)
	}
	awaitState(t, p, clk, types.StateProcessing)
	// A higher-priority gang that needs the whole node evicts the job's.
	if _, err := d.Kube.SubmitGang(kube.GangSpec{Name: "intruder", Tenant: "other", Priority: 1, Members: 1, GPUsPerMember: 4}); err != nil {
		t.Fatal(err)
	}
	awaitState(t, p, clk, types.StateDeploying) // handlePreemption's first write
	awaitGuardianExit(t, p, clk)
	keys := []string{types.GuardianJournalKey(p.JobID), types.EvictionIntentKey(p.JobID), types.LearnerEvictAckKey(p.JobID, 0)}
	deletes := func(evs []etcd.Event) (revs map[uint64]int, deleted map[string]bool) {
		revs, deleted = map[uint64]int{}, map[string]bool{}
		for _, ev := range evs {
			if ev.Type == etcd.EventDelete {
				revs[ev.Rev]++
				deleted[ev.Key] = true
			}
		}
		return revs, deleted
	}
	evs := awaitEvents(clk, seen, func(evs []etcd.Event) bool {
		_, deleted := deletes(evs)
		return deleted[keys[0]] && deleted[keys[1]] && deleted[keys[2]]
	})
	revs, deleted := deletes(evs)
	if !deleted[keys[0]] || !deleted[keys[1]] || !deleted[keys[2]] {
		t.Fatalf("deleted %v, want the journal, the eviction intent and learner 0's ack", deleted)
	}
	if len(revs) != 1 {
		t.Fatalf("the eviction's Deletes landed at %d revisions (%v), want 1", len(revs), revs)
	}
}

// awaitState steps the clock until the job is in state, for at most a
// virtual hour.
func awaitState(t *testing.T, p Params, clk *clock.Sim, state types.JobState) {
	t.Helper()
	for deadline := clk.Now().Add(time.Hour); clk.Now().Before(deadline); clk.Sleep(100 * time.Millisecond) {
		if rec, err := p.Deps.GetJob(context.Background(), p.JobID); err == nil && rec.State == state {
			return
		}
	}
	t.Fatalf("job %s never reached %s", p.JobID, state)
}
