package dlaas

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/guardian"
	"repro/internal/core/learner"
	"repro/internal/gpu"
	"repro/internal/kube"
)

// The full-platform tests are sleep-bound on a virtual clock, not
// CPU-bound, so test-level parallelism overlaps their idle windows even
// on one core. On small boxes the -test.parallel default (GOMAXPROCS)
// would serialize them and overrun go test's 10-minute package timeout;
// raise the cap. An explicit -parallel flag on the command line still
// wins — flag.Parse runs after TestMain sets this default.
func TestMain(m *testing.M) {
	if f := flag.Lookup("test.parallel"); f != nil && runtime.GOMAXPROCS(0) < 4 {
		_ = f.Value.Set("4")
	}
	os.Exit(m.Run())
}

// testManifest builds a small, fast training job: one learner, one GPU,
// a dataset sized so the whole job trains in a couple of cluster-minutes.
func testManifest(t *testing.T, p *Platform, tenant string, learners int) *Manifest {
	t.Helper()
	creds := Credentials{AccessKey: tenant, SecretKey: tenant + "-secret"}
	data, err := p.CreateDataset("data-"+tenant, "train/imagenet-sub.rec", 2<<30, creds)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.CreateResultsBucket("results-"+tenant, creds)
	if err != nil {
		t.Fatal(err)
	}
	return &Manifest{
		Name:               "test-train",
		Framework:          "tensorflow",
		Model:              "resnet50",
		Learners:           learners,
		GPUsPerLearner:     1,
		BatchPerGPU:        32,
		Epochs:             1,
		DatasetImages:      4000,
		TrainingData:       data,
		Results:            results,
		CheckpointInterval: 30 * time.Second,
	}
}

func newTestPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// skipIfShort guards the full-platform replay tests (boot + train +
// crash-inject) so `go test -short ./...` stays fast. Each guarded test
// boots an isolated Platform on a private virtual clock, so they also
// run in parallel — serially the full tier overruns go test's default
// 10-minute package timeout.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-platform replay test; skipped with -short")
	}
	t.Parallel()
}

func TestJobLifecycleEndToEnd(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("alice")
	m := testManifest(t, p, "alice", 1)

	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "job-") {
		t.Fatalf("job id = %q", id)
	}
	rec, err := client.WaitForState(id, StateCompleted, 2*time.Hour)
	if err != nil {
		t.Fatalf("job did not complete: %v (state %s, reason %q)", err, rec.State, rec.Reason)
	}

	// The state history must walk the canonical path with monotone
	// timestamps — users depend on these for profiling.
	events, err := client.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	var states []JobState
	for i, ev := range events {
		states = append(states, ev.State)
		if i > 0 && ev.Time.Before(events[i-1].Time) {
			t.Fatalf("event timestamps not monotone: %v", events)
		}
	}
	want := []JobState{StateQueued, StateDeploying, StateProcessing, StateStoring, StateCompleted}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}

	// Logs were collected and survive completion.
	logText, err := client.Logs(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logText, "training complete") {
		t.Fatalf("log missing completion marker:\n%s", logText)
	}

	// The trained model landed in the results bucket.
	creds := Credentials{AccessKey: "alice", SecretKey: "alice-secret"}
	keys, err := p.ObjectStore().List("results-alice", creds)
	if err != nil {
		t.Fatal(err)
	}
	foundModel := false
	for _, k := range keys {
		if strings.HasPrefix(k, "models/"+id+"/") {
			foundModel = true
		}
	}
	if !foundModel {
		t.Fatalf("no model stored; keys = %v", keys)
	}

	// Job resources were torn down.
	if p.Cluster().StatefulSetByName(guardian.LearnerSetName(id)) != nil {
		t.Fatal("learner StatefulSet leaked after completion")
	}
	if p.Cluster().DeploymentByName(guardian.HelperName(id)) != nil {
		t.Fatal("helper Deployment leaked after completion")
	}
}

func TestDistributedJobCompletes(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("bob")
	m := testManifest(t, p, "bob", 2) // two learners, Horovod-style
	m.Framework = "horovod"

	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	// Both learners produced logs.
	for l := 0; l < 2; l++ {
		text, err := client.Logs(id, l)
		if err != nil || !strings.Contains(text, "training complete") {
			t.Fatalf("learner %d log incomplete: %v\n%s", l, err, text)
		}
	}
}

func TestSubmissionSurvivesLCMOutage(t *testing.T) {
	skipIfShort(t)
	// The paper's durability guarantee: metadata is stored in MongoDB
	// before the ack, so a job submitted while the LCM is down is
	// deployed when the LCM recovers.
	p := newTestPlatform(t, Options{})
	client := p.Client("carol")
	m := testManifest(t, p, "carol", 1)

	// Take the LCM down hard (kill the pod; Deployment will recover it).
	lcmPods := p.Cluster().Pods(map[string]string{"app": "dlaas-lcm"})
	if len(lcmPods) != 1 {
		t.Fatalf("lcm pods = %d", len(lcmPods))
	}
	if err := p.Cluster().DeletePod(lcmPods[0].Name()); err != nil {
		t.Fatal(err)
	}

	// Submit during the outage: must be accepted (durable in MongoDB).
	id, err := client.Submit(m)
	if err != nil {
		t.Fatalf("submit during LCM outage failed: %v", err)
	}
	rec, err := client.Status(id)
	if err != nil || rec.State != StateQueued {
		t.Fatalf("status = (%+v, %v), want QUEUED", rec, err)
	}

	// After the LCM recovers, its sweep deploys the job to completion.
	if _, err := client.WaitForState(id, StateCompleted, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestAPIFailover(t *testing.T) {
	p := newTestPlatform(t, Options{APIReplicas: 2})
	client := p.Client("dave")
	m := testManifest(t, p, "dave", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}

	// Kill one API replica: calls keep succeeding via the other.
	apiPods := p.Cluster().Pods(map[string]string{"app": "dlaas-api"})
	if len(apiPods) != 2 {
		t.Fatalf("api pods = %d", len(apiPods))
	}
	if err := p.Cluster().DeletePod(apiPods[0].Name()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Status(id); err != nil {
			t.Fatalf("status call %d failed during API failover: %v", i, err)
		}
	}
}

func TestGuardianCrashMidDeployRollsBackAndRetries(t *testing.T) {
	skipIfShort(t)
	// The atomicity guarantee: kill the Guardian between provisioning
	// steps; the restarted Guardian rolls back and redeploys, and the
	// job still completes.
	p := newTestPlatform(t, Options{GuardianStepDelay: 2 * time.Second})
	client := p.Client("eve")
	m := testManifest(t, p, "eve", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the Guardian pod is running, then kill it mid-deploy
	// (steps take 2s each, so Running + 3s is inside the window).
	clk := p.Clock()
	deadline := clk.Now().Add(5 * time.Minute)
	var guardianPod *kube.Pod
	for clk.Now().Before(deadline) && guardianPod == nil {
		for _, pod := range p.Cluster().Pods(map[string]string{"app": "dlaas-guardian", "job": id}) {
			if pod.Phase() == kube.PodRunning {
				guardianPod = pod
			}
		}
		clk.Sleep(100 * time.Millisecond)
	}
	if guardianPod == nil {
		t.Fatal("guardian never ran")
	}
	clk.Sleep(3 * time.Second) // inside the multi-step deployment
	if err := p.Cluster().DeletePod(guardianPod.Name()); err != nil {
		t.Fatal(err)
	}

	rec, err := client.WaitForState(id, StateCompleted, 3*time.Hour)
	if err != nil {
		t.Fatalf("job did not survive guardian crash: %v (%+v)", err, rec)
	}
	if rec.DeployAttempts < 2 {
		t.Fatalf("deploy attempts = %d, want >= 2 (rollback+retry)", rec.DeployAttempts)
	}
}

func TestPersistentDeployFailureMarksJobFailed(t *testing.T) {
	skipIfShort(t)
	// Exhaust the Guardian's retry budget by killing it mid-deploy
	// every attempt; the job must be marked FAILED, not hang.
	p := newTestPlatform(t, Options{GuardianStepDelay: 3 * time.Second, MaxDeployAttempts: 2})
	client := p.Client("mallory")
	m := testManifest(t, p, "mallory", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}

	clk := p.Clock()
	killed := 0
	deadline := clk.Now().Add(30 * time.Minute)
	for clk.Now().Before(deadline) {
		rec, err := client.Status(id)
		if err == nil && rec.State.Terminal() {
			break
		}
		for _, pod := range p.Cluster().Pods(map[string]string{"app": "dlaas-guardian", "job": id}) {
			if pod.Phase() == kube.PodRunning {
				clk.Sleep(2 * time.Second) // land inside the deploy steps
				_ = p.Cluster().DeletePod(pod.Name())
				killed++
			}
		}
		clk.Sleep(500 * time.Millisecond)
	}
	rec, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed {
		t.Fatalf("state = %s after %d guardian kills, want FAILED", rec.State, killed)
	}
	// No orphaned resources.
	if p.Cluster().StatefulSetByName(guardian.LearnerSetName(id)) != nil {
		t.Fatal("learner StatefulSet leaked after FAILED")
	}
}

func TestLearnerCrashResumesFromCheckpoint(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("frank")
	m := testManifest(t, p, "frank", 1)
	m.DatasetImages = 20000 // long enough to crash mid-training
	m.CheckpointInterval = time.Minute

	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}

	// Let it train past at least one checkpoint, then kill the learner.
	clk := p.Clock()
	creds := Credentials{AccessKey: "frank", SecretKey: "frank-secret"}
	deadline := clk.Now().Add(time.Hour)
	for clk.Now().Before(deadline) {
		keys, _ := p.ObjectStore().List("results-frank", creds)
		found := false
		for _, k := range keys {
			if strings.HasPrefix(k, "checkpoints/"+id+"/") {
				found = true
			}
		}
		if found {
			break
		}
		clk.Sleep(5 * time.Second)
	}
	learnerPods := p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": id})
	if len(learnerPods) != 1 {
		t.Fatalf("learner pods = %d", len(learnerPods))
	}
	if err := p.Cluster().DeletePod(learnerPods[0].Name()); err != nil {
		t.Fatal(err)
	}

	// The StatefulSet restarts the learner; it resumes from the
	// checkpoint and the job completes.
	if _, err := client.WaitForState(id, StateCompleted, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	logText, err := client.Logs(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logText, "resumed from checkpoint") {
		t.Fatalf("learner did not resume from checkpoint:\n%s", logText)
	}
}

func TestHaltTerminatesJob(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("grace")
	m := testManifest(t, p, "grace", 1)
	m.DatasetImages = 100000 // would train for a long time

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
	rec, err := client.WaitForState(id, StateHalted, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateHalted {
		t.Fatalf("state = %s", rec.State)
	}
	// Resources torn down after halt.
	clk := p.Clock()
	deadline := clk.Now().Add(10 * time.Minute)
	for clk.Now().Before(deadline) {
		if p.Cluster().StatefulSetByName(guardian.LearnerSetName(id)) == nil {
			return
		}
		clk.Sleep(time.Second)
	}
	t.Fatal("learner StatefulSet not torn down after halt")
}

func TestTenantIsolation(t *testing.T) {
	p := newTestPlatform(t, Options{})
	alice := p.Client("alice")
	m := testManifest(t, p, "alice", 1)
	id, err := alice.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	// Another tenant cannot read the job.
	intruder := p.Client("intruder")
	if _, err := intruder.Status(id); err == nil {
		t.Fatal("cross-tenant status read allowed")
	}
	if _, err := intruder.Halt(id); err == nil {
		t.Fatal("cross-tenant halt allowed")
	}
	// And cannot read alice's training data bucket.
	evil := Credentials{AccessKey: "intruder", SecretKey: "intruder-secret"}
	if _, err := p.ObjectStore().List("data-alice", evil); err == nil {
		t.Fatal("cross-tenant bucket list allowed")
	}
}

func TestLearnerNetworkIsolation(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	a := p.Client("t1")
	ma := testManifest(t, p, "t1", 1)
	ma.DatasetImages = 100000
	idA, err := a.Submit(ma)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Client("t2")
	mb := testManifest(t, p, "t2", 1)
	mb.DatasetImages = 100000
	idB, err := b.Submit(mb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitForState(idA, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitForState(idB, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}

	learnersA := p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": idA})
	learnersB := p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": idB})
	helpersA := p.Cluster().Pods(map[string]string{"app": "dlaas-helper", "job": idA})
	if len(learnersA) == 0 || len(learnersB) == 0 || len(helpersA) == 0 {
		t.Fatalf("pods missing: %d %d %d", len(learnersA), len(learnersB), len(helpersA))
	}
	// Same-job helper may reach the learner; the other tenant's learner
	// may not.
	if !p.Cluster().CanConnect(helpersA[0].Name(), learnersA[0].Name()) {
		t.Fatal("same-job helper blocked")
	}
	if p.Cluster().CanConnect(learnersB[0].Name(), learnersA[0].Name()) {
		t.Fatal("cross-tenant learner connection allowed")
	}
	_, _ = a.Halt(idA)
	_, _ = b.Halt(idB)
}

func TestStatusUpdatesSurviveEtcdMinorityCrash(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("henry")
	m := testManifest(t, p, "henry", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	// Crash one etcd replica while the job is deploying/training.
	p.Etcd().CrashNode(0)
	if _, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("job failed with etcd minority down: %v", err)
	}
	p.Etcd().RestartNode(0)
}

func TestClusterInfo(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{Nodes: 2, GPUsPerNode: 4})
	client := p.Client("ops")
	info, err := client.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 2 || info.TotalGPUs != 8 || info.FreeGPUs != 8 || info.NodesDown != 0 {
		t.Fatalf("info = %+v", info)
	}
	// A running job consumes GPUs and shows up in the counts.
	m := testManifest(t, p, "ops", 1)
	m.DatasetImages = 200000
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	info, err = client.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.RunningJobs != 1 || info.FreeGPUs != 7 {
		t.Fatalf("info while training = %+v", info)
	}
	if _, err := client.Halt(id); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedBatchFailsWithOOM(t *testing.T) {
	skipIfShort(t)
	// A batch that cannot fit the GPU's memory fails the job with a
	// diagnosable reason, not a hang.
	p := newTestPlatform(t, Options{})
	client := p.Client("oom")
	m := testManifest(t, p, "oom", 1)
	m.Model = "vgg16"
	m.BatchPerGPU = 64 // 64 x 180MB activations >> K80's 12GB
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := client.WaitForState(id, StateFailed, 2*time.Hour)
	if err == nil && rec.State != StateFailed {
		t.Fatalf("state = %s, want FAILED", rec.State)
	}
	final, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want FAILED", final.State)
	}
	logText, _ := client.Logs(id, 0)
	if !strings.Contains(logText, "OOM") {
		t.Fatalf("log does not diagnose OOM:\n%s", logText)
	}
}

func TestClientSurvivesTotalAPIOutage(t *testing.T) {
	// Kill BOTH API replicas at once: the in-flight client call rides
	// out the outage (retry loop) while the Deployment recovers the
	// pods — no error ever reaches the user.
	p := newTestPlatform(t, Options{APIReplicas: 2})
	client := p.Client("outage")
	m := testManifest(t, p, "outage", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pod := range p.Cluster().Pods(map[string]string{"app": "dlaas-api"}) {
		if err := p.Cluster().DeletePod(pod.Name()); err != nil {
			t.Fatal(err)
		}
	}
	// Immediately issue a call: it must succeed once a replacement is up
	// (~3-5s), well inside the client retry window.
	rec, err := client.Status(id)
	if err != nil {
		t.Fatalf("status during total API outage: %v", err)
	}
	if rec.ID != id {
		t.Fatalf("record = %+v", rec)
	}
}

// TestManyConcurrentJobs exercises the paper's horizontal-scalability
// goal: a batch of jobs from different tenants, submitted together,
// all complete — queueing (not failing) when GPUs are contended.
func TestManyConcurrentJobs(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{Nodes: 4, GPUsPerNode: 2})
	const jobs = 10 // 10 single-GPU jobs on 8 GPUs: some must queue
	ids := make([]string, jobs)
	clients := make([]*Client, jobs)
	for i := 0; i < jobs; i++ {
		tenant := fmt.Sprintf("team-%02d", i)
		clients[i] = p.Client(tenant)
		m := testManifest(t, p, tenant, 1)
		m.DatasetImages = 3000
		id, err := clients[i].Submit(m)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i := 0; i < jobs; i++ {
		if _, err := clients[i].WaitForState(ids[i], StateCompleted, 12*time.Hour); err != nil {
			t.Fatalf("job %d (%s): %v", i, ids[i], err)
		}
	}
	// All GPU capacity is returned afterwards.
	clk := p.Clock()
	deadline := clk.Now().Add(10 * time.Minute)
	for clk.Now().Before(deadline) {
		if p.Cluster().FreeGPUs("") == 8 {
			return
		}
		clk.Sleep(2 * time.Second)
	}
	t.Fatalf("GPUs leaked: %d free, want 8", p.Cluster().FreeGPUs(""))
}

func TestGarbageCollectionReapsGuardianJob(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("gc")
	m := testManifest(t, p, "gc", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateCompleted, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	// The LCM's GC sweep removes the finished Guardian Job object.
	clk := p.Clock()
	deadline := clk.Now().Add(10 * time.Minute)
	for clk.Now().Before(deadline) {
		if p.Cluster().JobByName(guardian.KubeJobName(id)) == nil {
			return
		}
		clk.Sleep(time.Second)
	}
	t.Fatal("guardian kube Job never garbage-collected")
}

func TestMeteringCountsRequests(t *testing.T) {
	p := newTestPlatform(t, Options{})
	client := p.Client("meter")
	m := testManifest(t, p, "meter", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Status(id); err != nil {
			t.Fatal(err)
		}
	}
	reg := p.Metrics()
	if got := reg.Counter("api_requests_total", "submit", "meter"); got != 1 {
		t.Fatalf("submit meter = %v, want 1", got)
	}
	if got := reg.Counter("api_requests_total", "status", "meter"); got != 3 {
		t.Fatalf("status meter = %v, want 3", got)
	}
	if st := reg.Histogram("api_latency", "status"); st.Count != 3 || st.Mean <= 0 {
		t.Fatalf("latency stats = %+v", st)
	}
}

// TestContendedMixedWorkloadCompletes is the gang-scheduler acceptance
// test at the platform level: a mix of 1-, 2- and 4-learner jobs whose
// aggregate demand exceeds the cluster. Under the seed per-pod scheduler
// two 4-learner jobs could each grab part of the fleet and deadlock at
// rendezvous; gang admission serializes them and every job completes.
func TestContendedMixedWorkloadCompletes(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{Nodes: 2, GPUsPerNode: 3}) // 6 GPUs
	learners := []int{4, 4, 2, 1, 1}                           // 12 GPUs demanded
	ids := make([]string, len(learners))
	clients := make([]*Client, len(learners))
	for i, n := range learners {
		tenant := fmt.Sprintf("mix-%d", i)
		clients[i] = p.Client(tenant)
		m := testManifest(t, p, tenant, n)
		m.DatasetImages = 2000
		if n > 1 {
			m.Framework = "horovod"
		}
		id, err := clients[i].Submit(m)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i := range ids {
		if _, err := clients[i].WaitForState(ids[i], StateCompleted, 12*time.Hour); err != nil {
			t.Fatalf("job %d (%s, %d learners): %v", i, ids[i], learners[i], err)
		}
	}
	// No reservation leaked.
	clk := p.Clock()
	deadline := clk.Now().Add(10 * time.Minute)
	for clk.Now().Before(deadline) {
		if p.Cluster().FreeGPUs("") == 6 && len(p.Cluster().Gangs()) == 0 {
			return
		}
		clk.Sleep(2 * time.Second)
	}
	t.Fatalf("capacity leaked: free=%d gangs=%d", p.Cluster().FreeGPUs(""), len(p.Cluster().Gangs()))
}

// TestPreemptionRedeploysLowPriorityJob: a high-priority job evicts a
// running low-priority job's learner gang; the Guardian maps the
// preemption to rollback + redeploy, and both jobs eventually complete.
func TestPreemptionRedeploysLowPriorityJob(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{Nodes: 2, GPUsPerNode: 2}) // 4 GPUs
	low := p.Client("low")
	ml := testManifest(t, p, "low", 4)
	ml.Framework = "horovod"
	ml.DatasetImages = 16000 // long enough that the preemption lands mid-training
	ml.Priority = 1
	idLow, err := low.Submit(ml)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := low.WaitForState(idLow, StateProcessing, 2*time.Hour); err != nil {
		t.Fatal(err)
	}

	hi := p.Client("hi")
	mh := testManifest(t, p, "hi", 4)
	mh.Framework = "horovod"
	mh.DatasetImages = 2000
	mh.Priority = 100
	idHi, err := hi.Submit(mh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.WaitForState(idHi, StateCompleted, 6*time.Hour); err != nil {
		t.Fatalf("high-priority job did not complete: %v", err)
	}
	// The preempted job redeploys and completes after the preemptor frees
	// the fleet; its history records the preemption.
	if _, err := low.WaitForState(idLow, StateCompleted, 12*time.Hour); err != nil {
		t.Fatalf("preempted job did not recover: %v", err)
	}
	events, err := low.Events(idLow)
	if err != nil {
		t.Fatal(err)
	}
	preempted := false
	for _, ev := range events {
		if strings.Contains(ev.Note, "preempted") {
			preempted = true
		}
	}
	if !preempted {
		t.Fatalf("no preemption recorded in history: %v", events)
	}
}

// TestOversizedJobFailsFast: a job demanding more GPUs than the cluster
// could ever provide is FAILED with a diagnosable reason instead of
// queueing in DEPLOYING forever.
func TestOversizedJobFailsFast(t *testing.T) {
	p := newTestPlatform(t, Options{Nodes: 2, GPUsPerNode: 2}) // 4 GPUs total
	client := p.Client("big")
	m := testManifest(t, p, "big", 4)
	m.Framework = "horovod"
	m.GPUsPerLearner = 2 // 8 GPUs demanded
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := client.WaitForState(id, StateFailed, time.Hour)
	if err != nil && rec.State != StateFailed {
		t.Fatalf("oversized job not failed: %v (%+v)", err, rec)
	}
	if !strings.Contains(rec.Reason, "capacity") {
		t.Fatalf("reason = %q, want a capacity diagnosis", rec.Reason)
	}
}

// learnerProgress reads learner 0's live progress counter off the job's
// shared volume (zero when the volume or file is gone).
func learnerProgress(p *Platform, id string) int64 {
	vol, err := p.Cluster().NFS().Volume(guardian.VolumeName(id))
	if err != nil {
		return 0
	}
	raw, err := vol.Read(learner.ProgressPath(0))
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseInt(string(raw), 10, 64)
	return n
}

var (
	onDemandCkptRe = regexp.MustCompile(`on-demand checkpoint at (\d+)/`)
	resumedRe      = regexp.MustCompile(`resumed from checkpoint at (\d+)/`)
)

// evictionLogPoints extracts the grace-checkpoint and resume progress
// from a learner log (zero when the marker is absent).
func evictionLogPoints(logText string) (ack, resumed int64) {
	if m := onDemandCkptRe.FindAllStringSubmatch(logText, -1); len(m) > 0 {
		ack, _ = strconv.ParseInt(m[len(m)-1][1], 10, 64)
	}
	if m := resumedRe.FindAllStringSubmatch(logText, -1); len(m) > 0 {
		resumed, _ = strconv.ParseInt(m[len(m)-1][1], 10, 64)
	}
	return ack, resumed
}

// evictionManifest is a job long enough to be mid-training when the
// eviction lands, with periodic checkpointing effectively off — so any
// resume point it recovers must come from the grace-period checkpoint.
func evictionManifest(t *testing.T, p *Platform, tenant string) *Manifest {
	t.Helper()
	m := testManifest(t, p, tenant, 1)
	m.DatasetImages = 7000
	m.CheckpointInterval = time.Hour
	m.Priority = 1
	return m
}

// evictionOptions keeps the eviction e2e tests light for the -short
// tier: the protocol under test is scheduler/guardian/learner-side, so
// a single etcd replica (no Raft fan-out ticking across the long
// virtual timeline) loses no coverage.
func evictionOptions(nodes int) Options {
	return Options{Nodes: nodes, GPUsPerNode: 1, EtcdReplicas: 1}
}

// TestGracefulPreemptionResumesFromGraceCheckpoint is the protocol's
// end-to-end acceptance test: a high-priority job preempts an actively
// training low-priority job; instead of dying instantly the victim
// takes an on-demand checkpoint inside the grace window, and after the
// preemptor finishes it resumes from that checkpoint — losing (near)
// zero images rather than up to a full CheckpointInterval.
func TestGracefulPreemptionResumesFromGraceCheckpoint(t *testing.T) {
	p := newTestPlatform(t, evictionOptions(1))
	clk := p.Clock()
	low := p.Client("gp-low")
	ml := evictionManifest(t, p, "gp-low")
	idLow, err := low.Submit(ml)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := low.WaitForState(idLow, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(30 * time.Second) // accumulate un-checkpointed progress
	p0 := learnerProgress(p, idLow)
	if p0 == 0 {
		t.Fatal("no training progress recorded before preemption")
	}

	hi := p.Client("gp-hi")
	mh := testManifest(t, p, "gp-hi", 1)
	mh.DatasetImages = 2000
	mh.Priority = 100
	idHi, err := hi.Submit(mh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.WaitForState(idHi, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("preemptor did not complete: %v", err)
	}
	if _, err := low.WaitForState(idLow, StateCompleted, 12*time.Hour); err != nil {
		t.Fatalf("victim did not recover: %v", err)
	}

	logText, err := low.Logs(idLow, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, resumed := evictionLogPoints(logText)
	if ack == 0 {
		t.Fatalf("no on-demand checkpoint in victim log:\n%s", logText)
	}
	if ack < p0 {
		t.Fatalf("grace checkpoint at %d images lost progress (had %d at eviction)", ack, p0)
	}
	if resumed < ack {
		t.Fatalf("resumed at %d images, grace checkpoint was %d — work lost", resumed, ack)
	}
}

// TestDrainResumesFromGraceCheckpoint drains the node under an actively
// training job: the drain flows through the gang scheduler as a
// graceful eviction, the job redeploys on the surviving node, and it
// resumes from the grace checkpoint with (near) zero lost images.
func TestDrainResumesFromGraceCheckpoint(t *testing.T) {
	p := newTestPlatform(t, evictionOptions(2))
	clk := p.Clock()
	client := p.Client("gd")
	m := evictionManifest(t, p, "gd")
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(30 * time.Second)
	p0 := learnerProgress(p, id)
	if p0 == 0 {
		t.Fatal("no training progress recorded before drain")
	}
	learners := p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": id})
	if len(learners) != 1 {
		t.Fatalf("learner pods = %d", len(learners))
	}
	node := learners[0].NodeName()

	if err := p.Cluster().DrainNode(node); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateCompleted, 12*time.Hour); err != nil {
		t.Fatalf("drained job did not recover: %v", err)
	}

	logText, err := client.Logs(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, resumed := evictionLogPoints(logText)
	if ack == 0 {
		t.Fatalf("no on-demand checkpoint in drained job's log:\n%s", logText)
	}
	if resumed < ack || ack < p0 {
		t.Fatalf("drain lost work: progress %d, grace checkpoint %d, resumed %d", p0, ack, resumed)
	}
	events, err := client.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	for _, ev := range events {
		if strings.Contains(ev.Note, "drain") {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("no drain eviction recorded in history: %v", events)
	}
}

// TestWedgedLearnerForceEvictedAtDeadline: a grace period far shorter
// than any checkpoint path models a wedged learner that never acks. The
// deadline force-evicts it — the preemptor is never blocked — and the
// victim still completes, from scratch (no grace checkpoint exists).
func TestWedgedLearnerForceEvictedAtDeadline(t *testing.T) {
	opts := evictionOptions(1)
	opts.EvictionGracePeriod = time.Millisecond
	p := newTestPlatform(t, opts)
	clk := p.Clock()
	low := p.Client("wl-low")
	ml := evictionManifest(t, p, "wl-low")
	ml.DatasetImages = 6000
	// The wedge is deterministic by construction: the grace period sits
	// far below the physical on-demand checkpoint floor (device stall +
	// upload), so no learner can possibly ack in time.
	g, _ := gpu.ByName("K80") // the platform default these jobs resolve to
	if floor := learner.TrainingConfig(ml, g).EvictionCheckpointTime(); opts.EvictionGracePeriod >= floor {
		t.Fatalf("grace %v is not below the checkpoint floor %v", opts.EvictionGracePeriod, floor)
	}
	idLow, err := low.Submit(ml)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := low.WaitForState(idLow, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(30 * time.Second)

	hi := p.Client("wl-hi")
	mh := testManifest(t, p, "wl-hi", 1)
	mh.DatasetImages = 2000
	mh.Priority = 100
	idHi, err := hi.Submit(mh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.WaitForState(idHi, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("preemptor blocked by wedged victim: %v", err)
	}
	if _, err := low.WaitForState(idLow, StateCompleted, 12*time.Hour); err != nil {
		t.Fatalf("force-evicted job did not recover: %v", err)
	}

	logText, err := low.Logs(idLow, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, resumed := evictionLogPoints(logText)
	if ack != 0 || resumed != 0 {
		t.Fatalf("deadline eviction should not have checkpointed (ack=%d resumed=%d):\n%s", ack, resumed, logText)
	}
	events, err := low.Events(idLow)
	if err != nil {
		t.Fatal(err)
	}
	preempted := false
	for _, ev := range events {
		if strings.Contains(ev.Note, "preempted") {
			preempted = true
		}
	}
	if !preempted {
		t.Fatalf("no preemption recorded in history: %v", events)
	}
}

func TestInvalidManifestRejected(t *testing.T) {
	p := newTestPlatform(t, Options{})
	client := p.Client("zoe")
	m := testManifest(t, p, "zoe", 1)
	m.Framework = "not-a-framework"
	if _, err := client.Submit(m); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	m2 := testManifest(t, p, "zoe2", 1)
	m2.Learners = 0
	if _, err := client.Submit(m2); err == nil {
		t.Fatal("zero learners accepted")
	}
}
