package dlaas

import (
	"fmt"
	"testing"
	"time"
)

// The tests in this file pin the watch-driven control plane end to end:
// Guardian resume-from-revision across a crash, the compacted-revision
// re-list fallback, the control plane surviving etcd leader failover
// under a mixed workload, and the efficiency claim itself — a completed
// job costs a handful of etcd Range scans, not one per monitor tick.

// guardianPods selects a job's live Guardian pods.
func guardianPods(p *Platform, jobID string) []string {
	var out []string
	for _, pod := range p.Cluster().Pods(map[string]string{"app": "dlaas-guardian", "job": jobID}) {
		out = append(out, pod.Name())
	}
	return out
}

// killGuardian crash-kills the job's Guardian pod, returning whether a
// victim existed.
func killGuardian(t *testing.T, p *Platform, jobID string) bool {
	t.Helper()
	pods := guardianPods(p, jobID)
	if len(pods) == 0 {
		return false
	}
	if err := p.Chaos().KillPod(pods[0]); err != nil {
		t.Fatalf("killing guardian %s: %v", pods[0], err)
	}
	return true
}

// TestGuardianResumesWatchFromJournaledRevision: kill the Guardian while
// the job trains; the restarted Guardian must resume its status watch
// from the journaled revision (no re-list, no missed or duplicated
// transition) and drive the job to COMPLETED.
func TestGuardianResumesWatchFromJournaledRevision(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("resume")
	m := testManifest(t, p, "resume", 1)
	m.DatasetImages = 20000 // train long enough to crash mid-flight

	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Let at least one status event land (and be journaled) post-PROCESSING.
	p.Clock().Sleep(5 * time.Second)
	if !killGuardian(t, p, id) {
		t.Fatal("no guardian pod to kill")
	}
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("job did not complete after guardian crash: %v", err)
	}

	if got := p.Metrics().Counter("guardian_monitor_resumes"); got < 1 {
		t.Fatalf("guardian_monitor_resumes = %v, want >= 1 (restart did not resume from the journal)", got)
	}
	// A clean resume re-lists only at fresh deployment (once) and on the
	// long-interval liveness backstop — never because the restart fell
	// back.
	relists := p.Metrics().Counter("guardian_monitor_relists")
	backstops := p.Metrics().Counter("guardian_monitor_backstops")
	if relists > backstops+1 {
		t.Fatalf("relists = %v with %v backstops, want at most backstops+1 (resume fell back to re-list)", relists, backstops)
	}
	if got := p.Metrics().Counter("guardian_monitor_resume_compacted"); got != 0 {
		t.Fatalf("guardian_monitor_resume_compacted = %v, want 0", got)
	}

	// No duplicated transitions: the history walks the canonical path
	// exactly once per state.
	events, err := client.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[JobState]int{}
	for _, ev := range events {
		seen[ev.State]++
	}
	for _, st := range []JobState{StateProcessing, StateStoring, StateCompleted} {
		if seen[st] != 1 {
			t.Fatalf("state %s recorded %d times in %v, want exactly once", st, seen[st], events)
		}
	}
}

// TestGuardianWatchCompactedFallsBackToRelist: when the journaled
// revision has been truncated out of the store's history by the time
// the Guardian restarts, the resume must fail typed and fall back to a
// snapshot re-list — and the job must still complete.
func TestGuardianWatchCompactedFallsBackToRelist(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	p.Etcd().SetCompactEvery(10)
	client := p.Client("compacted")
	m := testManifest(t, p, "compacted", 1)
	m.DatasetImages = 20000

	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	p.Clock().Sleep(5 * time.Second)

	// Overflow one hot key's bounded version chain so the truncation
	// floor passes the Guardian's journaled revision, then crash it: the
	// restarted monitor's WatchFrom must return ErrCompacted.
	for i := 0; i < 48; i++ {
		if _, err := p.Etcd().Put("/chaff/hot", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !killGuardian(t, p, id) {
		t.Fatal("no guardian pod to kill")
	}
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("job did not complete after compacted resume: %v", err)
	}
	if got := p.Metrics().Counter("guardian_monitor_resume_compacted"); got < 1 {
		t.Fatalf("guardian_monitor_resume_compacted = %v, want >= 1", got)
	}
	if got := p.Metrics().Counter("guardian_monitor_relists"); got < 2 {
		t.Fatalf("guardian_monitor_relists = %v, want >= 2 (initial list + compaction fallback)", got)
	}
}

// TestWatchControlPlaneSurvivesEtcdLeaderFailover: a mixed workload on
// the watch-driven control plane keeps completing when the etcd leader
// crashes mid-run — watches re-deliver through the hub regardless of
// which replica leads, and the liveness backstops cover the gap.
func TestWatchControlPlaneSurvivesEtcdLeaderFailover(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{Nodes: 4, GPUsPerNode: 4})
	client := p.Client("failover")

	var ids []string
	for i, learners := range []int{1, 2, 1} {
		m := testManifest(t, p, fmt.Sprintf("failover%d", i), learners)
		m.Name = fmt.Sprintf("failover-%d", i)
		id, err := client.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wait until the fleet is training, then kill the etcd leader.
	if _, err := client.WaitForState(ids[0], StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	leader := p.Etcd().LeaderID()
	if leader < 0 {
		t.Fatal("no etcd leader")
	}
	p.Etcd().CrashNode(leader)

	for _, id := range ids {
		if _, err := client.WaitForState(id, StateCompleted, 4*time.Hour); err != nil {
			t.Fatalf("job %s failed across etcd leader failover: %v", id, err)
		}
	}
	p.Etcd().RestartNode(leader)
}

// rangesPerJobCeiling bounds the etcd Range scans one single-learner job
// costs, start to COMPLETED: the Guardian's initial list and its
// watchRelist backstops, the LCM's GC listing and its linearizable
// confirmation. 5 were measured; a monitor that re-listed the learner
// statuses on a 500ms tick spent one per tick.
const rangesPerJobCeiling = 8

// TestWatchModeFewerEtcdRanges is the acceptance criterion as a test:
// one job on the watch-driven control plane stays under
// rangesPerJobCeiling etcd Range scans.
func TestWatchModeFewerEtcdRanges(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("ab")
	m := testManifest(t, p, "ab", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	ranges := p.Etcd().RangeOps()
	t.Logf("etcd ranges for one job: %d", ranges)
	if ranges > rangesPerJobCeiling {
		t.Fatalf("one job cost %d etcd ranges, ceiling %d", ranges, rangesPerJobCeiling)
	}
}

// learnerPodsGoneWithin polls (virtual time, 50ms grain) until the job has
// no learner pods, reporting how long that took.
func learnerPodsGoneWithin(p *Platform, jobID string, within time.Duration) (time.Duration, bool) {
	start := p.Clock().Now()
	for {
		if len(p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": jobID})) == 0 {
			return p.Clock().Since(start), true
		}
		if p.Clock().Since(start) >= within {
			return within, false
		}
		p.Clock().Sleep(50 * time.Millisecond)
	}
}

// haltsVia reads guardian_monitor_halts by the path that saw the halt.
func haltsVia(p *Platform) map[string]float64 {
	out := map[string]float64{}
	for _, via := range []string{"feed", "startup", "backstop"} {
		out[via] = p.Metrics().Counter("guardian_monitor_halts", via)
	}
	return out
}

// TestHaltPropagatesThroughChangeFeed: user termination must reach a
// watch-mode Guardian through the metadata change feed — not the 15s
// backstop — so the learners are gone within a second of Halt returning.
func TestHaltPropagatesThroughChangeFeed(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("halter")
	m := testManifest(t, p, "halter", 1)
	m.DatasetImages = 200000
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Halt(id); err != nil {
		t.Fatal(err)
	}
	took, gone := learnerPodsGoneWithin(p, id, time.Second)
	if !gone {
		t.Fatalf("learner pods still up 1s after Halt returned; halts by path: %v", haltsVia(p))
	}
	t.Logf("learner pods gone %v after Halt returned", took)
	if got := haltsVia(p); got["feed"] != 1 || got["startup"] != 0 || got["backstop"] != 0 {
		t.Fatalf("halts by path = %v, want exactly one, via the feed", got)
	}
}

// TestHaltCommittedBeforeMonitorSubscribes: a halt that commits while the
// Guardian is still deploying has no feed event coming once the monitor
// subscribes. The monitor's own read right after subscribing must catch
// it, instead of leaving a halted job's learners on their GPUs until the
// backstop.
func TestHaltCommittedBeforeMonitorSubscribes(t *testing.T) {
	skipIfShort(t)
	// Two provisioning steps (learners, netpol) of 5s each separate the
	// learner pods' creation from the monitor's start.
	const stepDelay = 5 * time.Second
	p := newTestPlatform(t, Options{GuardianStepDelay: stepDelay})
	client := p.Client("earlyhalt")
	m := testManifest(t, p, "earlyhalt", 1)
	m.DatasetImages = 200000
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	learners := map[string]string{"app": "dlaas-learner", "job": id}
	deadline := p.Clock().Now().Add(time.Hour)
	for len(p.Cluster().Pods(learners)) == 0 {
		if !p.Clock().Now().Before(deadline) {
			t.Fatal("learner pods never created")
		}
		p.Clock().Sleep(100 * time.Millisecond)
	}
	if _, err := client.Halt(id); err != nil {
		t.Fatal(err)
	}
	if _, gone := learnerPodsGoneWithin(p, id, 2*stepDelay+2*time.Second); !gone {
		t.Fatalf("learner pods still up %v after a halt committed mid-deploy; halts by path: %v",
			2*stepDelay+2*time.Second, haltsVia(p))
	}
	if got := haltsVia(p); got["startup"] != 1 || got["feed"] != 0 || got["backstop"] != 0 {
		t.Fatalf("halts by path = %v, want exactly one, at monitor startup", got)
	}
}

// TestStoreMetricsExposed: the metadata-plane instrumentation the watch
// path is observed through — per-shard commit counters, the watch hub's
// queue-depth gauge, etcd client-op counts — lands in the platform
// metrics registry.
func TestStoreMetricsExposed(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("obs")
	m := testManifest(t, p, "obs", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	reg := p.Metrics()
	var shardCommits float64
	for i := 0; i < 64; i++ {
		shardCommits += reg.Counter("store_shard_commits", "mongo", fmt.Sprintf("shard-%d", i))
	}
	if shardCommits == 0 {
		t.Fatalf("no mongo shard commits recorded:\n%s", reg.Snapshot())
	}
	if got := reg.Counter("etcd_client_ops", "put"); got == 0 {
		t.Fatal("etcd client-op counters not recorded")
	}
	if got := reg.Counter("etcd_client_ops", "watch"); got == 0 {
		t.Fatal("watch subscriptions not counted (watch mode should open them)")
	}
	if p.Etcd().RangeOps() == 0 {
		t.Fatal("RangeOps counter never moved (the initial list should count)")
	}
	for op, n := range p.NFS().OpCounts() {
		if n == 0 || reg.Counter("nfs_ops", op) == 0 {
			t.Fatalf("NFS %s ops: OpCounts %d, nfs_ops %v — want both counted", op, n, reg.Counter("nfs_ops", op))
		}
	}
}
