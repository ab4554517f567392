// Package guardian implements the per-job Guardian: a DLaaS component
// created on the fly as a Kubernetes Job for every DL training job. The
// Guardian executes the multi-step deployment (shared volume, helper
// pod, learner StatefulSet, network policy), journaling progress in etcd.
// If it crashes mid-deployment, Kubernetes restarts it; the restarted
// Guardian rolls back the partial deployment and starts fresh, retrying
// up to a configurable limit before marking the job FAILED in MongoDB —
// the paper's atomic-deployment guarantee. Once deployed, the Guardian
// monitors learner statuses (via etcd), aggregates them into the job
// state in MongoDB, and tears everything down at completion.
package guardian

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/helper"
	"repro/internal/core/learner"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/events"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/mongo"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/trace"
)

// DefaultMaxDeployAttempts is how many times deployment is retried
// before the job is marked FAILED ("this process will be repeated for a
// (configurable) number of times before the Guardian gives up").
const DefaultMaxDeployAttempts = 3

// watchTick is the monitor's cadence for what it does not react to at
// once: a completed gang eviction and the results-stored NFS marker are
// acted on at the first tick after they happen, a step that
// failed (a refused state transition, an unreadable marker) is retried
// every tick, and the watchRelist backstop runs on the first tick past
// its interval. A tick on which none of these is due is not taken: the
// monitor arms its timer for the first one that can matter.
const watchTick = time.Second

// watchRelist is the monitor's liveness backstop, guarding both event
// streams against a wedged subscription: a full etcd re-list of learner
// statuses and a GetJob halt check at a long interval.
const watchRelist = 15 * time.Second

// Params configures one job's Guardian.
type Params struct {
	Deps     *core.Deps
	JobID    string
	Manifest *manifest.Manifest
	// MaxDeployAttempts overrides DefaultMaxDeployAttempts when > 0.
	MaxDeployAttempts int
	// StepDelay is the modeled work per provisioning step (credential
	// setup, API round trips). It also widens the window in which
	// crash-injection tests can catch the Guardian mid-deployment.
	StepDelay time.Duration

	// volume and gang are the job's VolumeName and GangName, named once
	// by Run for the deployment steps and the monitor's polls.
	volume, gang string
}

// Resource naming conventions (name-addressed so a restarted Guardian
// can find its predecessor's leftovers with no in-memory state).

// VolumeName is the job's shared NFS volume.
func VolumeName(jobID string) string { return "vol-" + jobID }

// HelperName is the job's helper Deployment.
func HelperName(jobID string) string { return "helper-" + jobID }

// LearnerSetName is the job's learner StatefulSet.
func LearnerSetName(jobID string) string { return "learner-" + jobID }

// PolicyName is the job's learner-isolation NetworkPolicy.
func PolicyName(jobID string) string { return "netpol-" + jobID }

// KubeJobName is the Kubernetes Job that hosts the Guardian itself.
func KubeJobName(jobID string) string { return "guardian-" + jobID }

// GangName is the job's learner pod group in the gang scheduler.
func GangName(jobID string) string { return "gang-" + jobID }

// ContainerSpec builds the Guardian container. Guardians are small Go
// processes with fast, cached images — the quickest component to recover
// in Fig. 4 (1-2s).
func ContainerSpec(p Params) kube.ContainerSpec {
	return kube.ContainerSpec{
		Name:       "guardian",
		Image:      "dlaas/guardian",
		StartDelay: 500 * time.Millisecond,
		Run:        func(ctx *kube.ContainerCtx) int { return Run(ctx, p) },
	}
}

// Run executes the Guardian process. Exit code 0 means the Guardian's
// work is finished (job reached a terminal state — including FAILED);
// any other exit causes the hosting Kubernetes Job to run a fresh
// Guardian attempt.
func Run(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	p.volume, p.gang = VolumeName(p.JobID), GangName(p.JobID)
	maxAttempts := p.MaxDeployAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxDeployAttempts
	}

	rec, err := d.GetJob(context.Background(), p.JobID)
	if err != nil {
		// Without the metadata record nothing can proceed; retry via
		// the kube Job in case MongoDB was momentarily down.
		return 1
	}
	if rec.State.Terminal() {
		return 0
	}

	// Named once: the journal is written when a deployment starts, when
	// it is done, and when the monitor's cursor first moves.
	journalKey := types.GuardianJournalKey(p.JobID)
	j := loadJournal(d, journalKey)
	if j == nil || !j.Deployed {
		// Fresh deploy or crashed mid-deploy: roll back leftovers and
		// provision from scratch ("The restarted Guardian will roll
		// back the previous partially deployed DL job and starts a
		// fresh deployment process").
		if j != nil {
			rollback(d, p.JobID)
		}
		// One write counts the attempt and announces DEPLOYING.
		attempts, err := d.BeginDeployAttempt(p.JobID, maxAttempts)
		if attempts > maxAttempts {
			failJob(d, p.JobID, fmt.Sprintf("deployment failed after %d attempts", attempts-1))
			cleanupEtcd(d, p.JobID)
			return 0
		}
		if err != nil {
			return 1
		}
		// First-time provisioning is deploy cost; a redeploy after a
		// crash, preemption, or drain is recovery cost on the critical
		// path (the journal's existence marks a prior deployment).
		dspan := d.Trace.StartSpan(trace.JobRoot(p.JobID), "guardian-deploy")
		if j != nil || attempts > 1 {
			dspan.SetPhase(trace.PhaseRecovery)
		} else {
			dspan.SetPhase(trace.PhaseDeploy)
		}
		dspan.SetAttr("attempt", fmt.Sprintf("%d", attempts))
		var code int
		j, code = deploy(ctx, p, journalKey, dspan.Context())
		dspan.End()
		if j == nil {
			return code
		}
	}

	return monitor(ctx, p, journalKey, j)
}

// deploy provisions every job resource and returns the deployed journal.
// It journals under journalKey only what a restarted Guardian reads: that
// a deployment is in progress, before the first resource exists, and that
// it is Deployed, after the last. The steps are recorded in memory and
// written once, with Deployed. It returns a nil journal with the exit code
// when interrupted. parentSpan (the guardian-deploy span) parents the
// scheduler's gang-wait span.
func deploy(ctx *kube.ContainerCtx, p Params, journalKey string, parentSpan trace.SpanContext) (*journal, int) {
	d := p.Deps
	j := &journal{}
	// Journal existence marks "deployment in progress" — it must be
	// durable before the first resource is created, or a crash in the
	// gap would leave an orphan that the next attempt doesn't roll back.
	// A crash between steps finds this same journal and rolls back every
	// resource by name, so no step needs a write of its own.
	saveJournal(d, journalKey, j)
	step := func(name string) bool {
		j.Steps = append(j.Steps, name)
		return ctx.Sleep(p.StepDelay)
	}

	// Step 1: shared NFS volume via a persistent volume claim.
	if _, err := d.NFS.Provision(p.volume); err != nil {
		if !errors.Is(err, nfs.ErrVolumeExists) {
			return nil, 1
		}
		// Leftover from a partial deploy whose journal write never
		// landed: recreate it empty.
		d.NFS.Release(p.volume)
		if _, err := d.NFS.Provision(p.volume); err != nil {
			return nil, 1
		}
	}
	restoreShippedLogs(p)
	if !step("volume") {
		return nil, 137
	}

	// Step 2: helper pod (load-data, controller, log-collector,
	// store-results) as a Deployment.
	helperSpec := helper.PodSpec(helper.Params{
		Deps:       d,
		JobID:      p.JobID,
		Manifest:   p.Manifest,
		VolumeName: p.volume,
	})
	if _, err := d.Kube.CreateDeployment(HelperName(p.JobID), 1, helperSpec); err != nil {
		return nil, 1
	}
	if !step("helper") {
		return nil, 137
	}

	// Step 3: learner StatefulSet with stable identities. The learners
	// are submitted to the gang scheduler as one pod group first: the
	// whole gang is admitted atomically — the paper's atomic
	// provisioning ("either the whole job is provisioned with the
	// requisite resources or none") — instead of learner pods grabbing
	// GPUs one at a time and deadlocking against another partially
	// placed job. Submission is idempotent, so a restarted Guardian
	// recovers the reservation by name.
	gang, err := d.Kube.SubmitGang(kube.GangSpec{
		Name:          p.gang,
		Tenant:        p.Manifest.TrainingData.AccessKey,
		Priority:      p.Manifest.Priority,
		Members:       p.Manifest.Learners,
		GPUsPerMember: p.Manifest.GPUsPerLearner,
		GPUType:       p.Manifest.GPUType,
		Trace:         parentSpan,
	})
	if err != nil {
		if errors.Is(err, kube.ErrGangUnsatisfiable) {
			// The cluster could never place this job; fail it with a
			// diagnosable reason instead of queueing forever.
			failJob(d, p.JobID, "insufficient cluster capacity: "+err.Error())
			rollback(d, p.JobID)
			cleanupEtcd(d, p.JobID)
			return nil, 0
		}
		return nil, 1
	}
	if !step("gang") {
		return nil, 137
	}
	for gang.State() == kube.GangPending {
		if halted, _ := jobHalted(d, p.JobID); halted {
			d.Kube.CancelGang(p.gang)
			return nil, 0
		}
		if !ctx.Sleep(500 * time.Millisecond) {
			return nil, 137
		}
	}
	if gang.State() != kube.GangAdmitted {
		// Preempted (or cancelled) before the learners existed: retry
		// from scratch on a fresh Guardian attempt. Like the monitor's
		// preemption path, this is the scheduler's doing — give the
		// attempt back so churny preemption cannot exhaust the budget.
		d.Kube.CancelGang(p.gang)
		_ = d.ResetDeployAttempts(p.JobID)
		return nil, 1
	}
	g := resolveGPU(d, p.Manifest)
	learnerPod := kube.PodSpec{
		Labels: map[string]string{
			"app":    "dlaas-learner",
			"job":    p.JobID,
			"tenant": p.Manifest.TrainingData.AccessKey,
		},
		Tenant:           p.Manifest.TrainingData.AccessKey,
		RestartPolicy:    kube.RestartAlways,
		GPUs:             p.Manifest.GPUsPerLearner,
		GPUType:          p.Manifest.GPUType,
		Gang:             p.gang,
		Volumes:          []string{p.volume},
		BindsObjectStore: true,
	}
	// Each ordinal needs its own Params; the container reads its
	// ordinal from the pod name via the set's stable identity. We use
	// one spec whose Run derives the ordinal lazily.
	learnerPod.Containers = []kube.ContainerSpec{learnerContainerForSet(p, g)}
	if _, err := d.Kube.CreateStatefulSet(LearnerSetName(p.JobID), p.Manifest.Learners, learnerPod); err != nil {
		return nil, 1
	}
	if !step("learners") {
		return nil, 137
	}

	// Step 4: network policy — learners accept traffic only from pods
	// of the same job (helper, fellow learners), isolating tenants from
	// each other and from platform services.
	d.Kube.ApplyNetworkPolicy(kube.NetworkPolicy{
		Name:      PolicyName(p.JobID),
		AppliesTo: map[string]string{"app": "dlaas-learner", "job": p.JobID},
		AllowFrom: []map[string]string{{"job": p.JobID}},
	})
	if !step("netpol") {
		return nil, 137
	}

	j.Deployed = true
	saveJournal(d, journalKey, j)
	return j, 0
}

// learnerContainerForSet wraps learner.ContainerSpec so each StatefulSet
// ordinal computes its own identity from the pod name ("<set>-<ordinal>").
func learnerContainerForSet(p Params, g gpu.Spec) kube.ContainerSpec {
	base := learner.ContainerSpec(learner.Params{
		Deps:       p.Deps,
		JobID:      p.JobID,
		Ordinal:    0,
		Manifest:   p.Manifest,
		VolumeName: p.volume,
		GPU:        g,
	})
	run := func(ctx *kube.ContainerCtx) int {
		ordinal := ordinalFromPodName(ctx.PodName())
		return learner.ContainerSpec(learner.Params{
			Deps:       p.Deps,
			JobID:      p.JobID,
			Ordinal:    ordinal,
			Manifest:   p.Manifest,
			VolumeName: p.volume,
			GPU:        g,
		}).Run(ctx)
	}
	base.Run = run
	return base
}

// ordinalFromPodName parses the trailing "-<n>" of a StatefulSet pod name.
func ordinalFromPodName(name string) int {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '-' {
			n := 0
			for _, c := range name[i+1:] {
				if c < '0' || c > '9' {
					return 0
				}
				n = n*10 + int(c-'0')
			}
			return n
		}
	}
	return 0
}

// jobHalted reports whether the user terminated the job.
func jobHalted(d *core.Deps, jobID string) (bool, error) {
	rec, err := d.GetJob(context.Background(), jobID)
	if err != nil {
		return false, err
	}
	return rec.State == types.StateHalted, nil
}

// resolveGPU picks the job's GPU spec.
func resolveGPU(d *core.Deps, m *manifest.Manifest) gpu.Spec {
	if m.GPUType != "" {
		if g, ok := gpu.ByName(m.GPUType); ok {
			return g
		}
	}
	return d.DefaultGPU
}

// settle folds the aggregated learner statuses into the job state,
// driving the terminal transitions. done=true means the Guardian's work
// is finished and the monitor must exit with the returned code.
//
// announced remembers the non-terminal state this monitor last wrote,
// across wakeups, so settling is write-free while nothing changed — a
// monitor that re-wrote PROCESSING on every wakeup would emit a metadata
// change event, observe its own event on the job feed, and wake again: a
// self-feeding storm.
//
// retry=true means a step this pass attempted did not go through — a
// state transition the store refused, a marker that is there but could
// not be read — and no event will say when it can: the caller must come
// back on its cadence instead of waiting for one.
func settle(p Params, statuses []types.StatusUpdate, announced *types.JobState) (code int, done, retry bool) {
	d := p.Deps
	training, completed, failed := 0, 0, 0
	var failDetail string
	for _, s := range statuses {
		switch s.Status {
		case types.LearnerTraining:
			training++
		case types.LearnerCompleted:
			completed++
		case types.LearnerFailed:
			failed++
			failDetail = fmt.Sprintf("learner %d failed (%s)", s.Learner, s.Detail)
		}
	}
	announce := func(to types.JobState, reason string) {
		if *announced == to {
			return
		}
		// Only remember the state once the write committed: a transient
		// mongo failure here must be retried on the next wakeup, or the
		// record would be stranded one state behind (and the later
		// COMPLETED transition rejected by the state machine).
		if _, err := d.TransitionJob(p.JobID, to, reason); err == nil {
			*announced = to
		}
	}
	switch {
	case failed > 0:
		failJob(d, p.JobID, failDetail)
		shipLogs(p)
		teardown(d, p.JobID)
		cleanupEtcd(d, p.JobID)
		return 0, true, false
	case completed == p.Manifest.Learners && p.Manifest.Learners > 0:
		// All learners done: move to STORING, wait for the helper's
		// store-results marker, then COMPLETED.
		announce(types.StateStoring, "all learners completed")
		if *announced != types.StateStoring {
			return 0, false, true
		}
		if stored, unreadable := resultsStored(p); !stored {
			return 0, false, unreadable
		}
		if _, err := d.TransitionJob(p.JobID, types.StateCompleted, "results stored"); err != nil {
			// The terminal write must land before teardown; retry.
			return 0, false, true
		}
		teardown(d, p.JobID)
		cleanupEtcd(d, p.JobID)
		return 0, true, false
	case training > 0:
		announce(types.StateProcessing, "learners training")
		return 0, false, *announced != types.StateProcessing
	}
	return 0, false, false
}

// handleHalt tears the job down after user termination.
func handleHalt(p Params) int {
	d := p.Deps
	shipLogs(p)
	teardown(d, p.JobID)
	cleanupEtcd(d, p.JobID)
	return 0
}

// handlePreemption maps a completed gang eviction to the Guardian's
// rollback: cancel the gang, tear down the partial deployment, and
// redeploy from scratch on a fresh Guardian attempt — resuming from the
// grace-period checkpoint when the eviction was graceful. The attempt
// counter is reset: eviction is the scheduler's doing, not a deployment
// failure, so it must not burn the job's retry budget.
func handlePreemption(p Params) int {
	d := p.Deps
	reason := "preempted by higher-priority job; redeploying"
	if g := d.Kube.GangByName(p.gang); g != nil {
		if intent, ok := g.EvictionIntent(); ok && intent.Reason == kube.EvictReasonDrain {
			reason = "evicted by node drain; redeploying"
		}
	}
	_, _ = d.TransitionJob(p.JobID, types.StateDeploying, reason)
	shipLogs(p)
	rollback(d, p.JobID)
	// Drop the journal and clear the eviction handshake, so the redeployed
	// job starts with a clean ack slate (the NFS side vanishes with the
	// volume), in one entry.
	keys := make([]etcd.KV, 0, 2+p.Manifest.Learners)
	keys = append(keys, etcd.KV{Key: types.GuardianJournalKey(p.JobID)}, etcd.KV{Key: types.EvictionIntentKey(p.JobID)})
	for l := 0; l < p.Manifest.Learners; l++ {
		keys = append(keys, etcd.KV{Key: types.LearnerEvictAckKey(p.JobID, l)})
	}
	DeleteKeys(d, keys)
	_ = d.ResetDeployAttempts(p.JobID)
	return 1
}

// relayEviction mirrors the scheduler's eviction intent onto the
// control plane: an envelope under the job's etcd prefix (so the intent
// rides the same revision-ordered watch feeds as every other event) and
// the learners' NFS evict-request file (their checkpoint trigger).
func relayEviction(p Params, intent kube.EvictionIntent) {
	d := p.Deps
	root := trace.JobRoot(p.JobID)
	d.Trace.Lookup(root).Event("eviction-intent:" + intent.Reason)
	env := events.EvictionIntent(p.JobID, intent.Reason, intent.Deadline, d.Clock.Now()).
		WithTrace(string(root.TraceID), root.SpanID.String())
	raw, err := env.Encode()
	if err != nil {
		return
	}
	_, _ = d.Etcd.Put(types.EvictionIntentKey(p.JobID), string(raw))
	if vol, err := d.NFS.Volume(p.volume); err == nil {
		vol.Write(learner.EvictRequestPath, raw)
	}
	if d.Metrics != nil {
		d.Metrics.Inc("guardian_eviction_intents", intent.Reason)
	}
}

// checkGang folds the gang scheduler's state into the monitor loop:
// a completed eviction (GangPreempted) becomes rollback + redeploy; a
// posted intent (GangEvicting) is relayed to the learners once, and
// once every learner has acked its on-demand checkpoint the Guardian
// completes the eviction early instead of waiting out the deadline.
// done=true means the monitor must exit with the returned code.
func checkGang(p Params, relayed *bool, acks map[int]bool) (code int, done bool) {
	d := p.Deps
	g := d.Kube.GangByName(p.gang)
	if g == nil {
		return 0, false
	}
	switch g.State() {
	case kube.GangPreempted:
		return handlePreemption(p), true
	case kube.GangEvicting:
		if !*relayed {
			*relayed = true
			if intent, ok := g.EvictionIntent(); ok {
				relayEviction(p, intent)
			}
		}
		if p.Manifest.Learners > 0 && len(acks) >= p.Manifest.Learners {
			// Completion is synchronous: the gang is preempted when
			// AckEviction returns, so redeploy right away.
			d.Kube.AckEviction(p.gang)
			if g.State() == kube.GangPreempted {
				return handlePreemption(p), true
			}
		}
	}
	return 0, false
}

// monitor aggregates learner statuses from etcd into the job state in
// MongoDB until the job reaches a terminal state, then tears down. It is
// event-driven: a list-then-watch state machine over the job's
// learner-status prefix. Status events are folded into an aggregated
// per-learner view as they commit; the first revision the monitor folds
// (and the view as of it) is journaled, once, so a restarted Guardian
// resumes its watch there and the store backfills what came after — etcd
// is re-listed only when the saved revision has been compacted past, and
// once per watchRelist as a liveness backstop. Halts are list-then-watch
// too: one GetJob right after subscribing to the job's own metadata
// change feed (a halt committed earlier has no event coming), the feed
// from then on, and a GetJob on the same watchRelist backstop;
// guardian_monitor_halts{via} counts which of the three saw the halt.
// Eviction intents arrive on the gang's notice channel with their acks
// on the learner watch; a completed eviction and the results-stored
// marker are acted on at the next 1s tick, and only such ticks are taken
// (see watchTick). j is the deployed journal, saved under journalKey.
func monitor(ctx *kube.ContainerCtx, p Params, journalKey string, j *journal) int {
	d := p.Deps
	prefix := types.LearnerStatusPrefix(p.JobID)
	count := func(name string, labels ...string) {
		if d.Metrics != nil {
			d.Metrics.Inc(name, labels...)
		}
	}

	// Restore the aggregated view and resume cursor from the journal.
	statuses := make(map[int]types.StatusUpdate)
	statusRev := make(map[int]uint64)
	var lastRev uint64
	if j.MonitorRev > 0 {
		lastRev = j.MonitorRev
		for l, u := range j.Statuses {
			statuses[l] = u
		}
	}

	// Eviction handshake state. Acks advance the cursor and ride the
	// journal like statuses do, so a Guardian restarted mid-grace picks
	// the handshake up exactly; the scheduler's deadline force-evicts if
	// a restart eats the whole grace window anyway.
	acks := make(map[int]bool)
	for l, v := range j.Acks {
		if v {
			acks[l] = true
		}
	}
	evictRelayed := false

	fold := func(l int, u types.StatusUpdate, rev uint64) {
		if rev > statusRev[l] {
			statusRev[l] = rev
			statuses[l] = u
		}
		if rev > lastRev {
			lastRev = rev
		}
	}
	foldEvent := func(ev etcd.Event) {
		if ev.Type != etcd.EventPut {
			return
		}
		env, ok := events.DecodeString(ev.Value)
		if !ok {
			return
		}
		switch env.Kind {
		case events.KindLearnerStatus:
			fold(env.Learner, env.StatusUpdate(), ev.Rev)
			count("guardian_monitor_events")
		case events.KindEvictionAck:
			acks[env.Learner] = true
			if ev.Rev > lastRev {
				lastRev = ev.Rev
			}
			count("guardian_monitor_acks")
		}
	}

	// The cursor is journaled once, when it first moves off zero or
	// after a resume fell back to a re-list: a restart needs a cursor to
	// resume from, not the newest one. The view
	// is journaled as of that cursor, and the store backfills everything
	// after it, so a Guardian resuming there folds the same events in the
	// same order and reaches the view this one has; a cursor the store no
	// longer holds history for is re-listed (ErrCompacted).
	saved := lastRev > 0
	saveCursor := func() {
		if saved || lastRev == 0 {
			return
		}
		// The journal is encoded before saveJournal returns, so it can
		// hold the monitor's own maps rather than copies.
		j.MonitorRev, j.Statuses, j.Acks = lastRev, statuses, acks
		saveJournal(d, journalKey, j)
		saved = true
	}

	var evCh <-chan etcd.Event
	var cancelWatch func()
	defer func() {
		if cancelWatch != nil {
			cancelWatch()
		}
	}()

	// relist falls back to list-then-watch: subscribe from the present
	// first, then fill from a linearizable Range — an event committed
	// between the two is applied twice at most, and the per-learner
	// revision compare in fold dedupes it.
	relist := func() bool {
		if cancelWatch != nil {
			cancelWatch()
		}
		evCh, cancelWatch = d.Etcd.Watch(prefix)
		kvs, err := d.Etcd.Range(prefix)
		if err != nil {
			return false
		}
		count("guardian_monitor_relists")
		for _, kv := range kvs {
			env, ok := events.DecodeString(kv.Value)
			if !ok {
				continue
			}
			switch env.Kind {
			case events.KindLearnerStatus:
				fold(env.Learner, env.StatusUpdate(), kv.Rev)
			case events.KindEvictionAck:
				acks[env.Learner] = true
			}
		}
		return true
	}

	if lastRev > 0 {
		// Resume exactly after the last folded revision: history in
		// (lastRev, now] is backfilled from the store's version chains.
		ch, cancel, err := d.Etcd.WatchFrom(prefix, lastRev)
		if err == nil {
			evCh, cancelWatch = ch, cancel
			count("guardian_monitor_resumes")
		} else {
			// Compacted past (or transient failure): snapshot re-list,
			// and journal the cursor it yields, since a later restart
			// could not resume from the old one either.
			if errors.Is(err, etcd.ErrCompacted) {
				count("guardian_monitor_resume_compacted")
			}
			saved = false
			if !relist() {
				return 1
			}
		}
	} else if !relist() {
		return 1
	}
	// Persist a cursor the first fill moved at once: a long event-free
	// stretch (steady training) must still leave a resumable journal
	// behind for the next incarnation.
	saveCursor()

	// Per-job change feed for halt detection. The single-document filter
	// keeps this Guardian from waking on every other job's commits at
	// high job counts.
	var jobFeed <-chan mongo.ChangeEvent
	if feed, cancelFeed, err := d.Jobs().WatchKey(p.JobID); err == nil {
		jobFeed = feed
		defer cancelFeed()
	}
	// haltedVia asks MongoDB directly, for the two moments the feed cannot
	// answer: a halt committed before the subscription above (Run's own
	// check is a whole deployment old by now) has no event coming, and the
	// backstop must not trust the stream it guards.
	haltedVia := func(via string) bool {
		halted, _ := jobHalted(d, p.JobID)
		if halted {
			count("guardian_monitor_halts", via)
		}
		return halted
	}
	if haltedVia("startup") {
		return handleHalt(p)
	}

	// The scheduler closes the gang's notice channel when it posts an
	// eviction intent, so the relay starts on the event rather than the
	// next tick. A closed channel is always ready — nil it after the
	// first wakeup.
	// Its eviction channel closes when the eviction completes; that, and a
	// write of the results-stored marker, are what a tick's pass can find
	// changed with no event delivered — subscribed here, before the first
	// pass looks, so that either is seen on the first tick after it.
	var evictNotice, evicted, markerWritten <-chan struct{}
	if g := d.Kube.GangByName(p.gang); g != nil {
		evictNotice, evicted = g.EvictionNotice(), g.Evicted()
	}
	if vol, err := d.NFS.Volume(p.volume); err == nil {
		sub := vol.Subscribe(helper.ResultsStoredMarker)
		defer sub.Close()
		markerWritten = sub.C()
	}

	lastList := d.Clock.Now()
	var announced types.JobState
	var view []types.StatusUpdate       // settle's input, rebuilt every pass
	tick := d.Clock.NewTimer(watchTick) // one timer, re-armed every pass
	defer tick.Stop()
	for {
		// Act on the current aggregate before sleeping: the view may
		// already be terminal (restored from the journal, or settled by
		// the events just folded).
		// Learner order must be stable: settle's aggregation walks the
		// view in order, and a map-ordered walk would let two replays
		// of one schedule announce different detail lines.
		view = view[:0]
		for _, u := range statuses {
			view = append(view, u)
		}
		slices.SortFunc(view, func(a, b types.StatusUpdate) int { return cmp.Compare(a.Learner, b.Learner) })
		code, done, retry := settle(p, view, &announced)
		if done {
			return code
		}
		if code, done := checkGang(p, &evictRelayed, acks); done {
			return code
		}

		// Ticks are counted from here. The next one is taken only to
		// retry; otherwise the first that has something to do is the
		// backstop's, unless a signal below pulls an earlier one in.
		armed := d.Clock.Now()
		wait := watchTick
		if due := lastList.Add(watchRelist).Sub(armed); !retry && due > watchTick {
			wait = (due + watchTick - 1) / watchTick * watchTick
		}
		clock.Rearm(tick, wait)
	wait:
		select {
		case <-ctx.Killed():
			return 137
		case <-evictNotice:
			evictNotice = nil // fires once; checkGang relays on this pass
		case ev := <-evCh:
			foldEvent(ev)
			// Drain whatever else is already pending so one settle
			// covers the batch.
		drain:
			for {
				select {
				case ev := <-evCh:
					foldEvent(ev)
				default:
					break drain
				}
			}
			saveCursor()
		case ce := <-jobFeed:
			if ce.ID == p.JobID {
				if rec := core.RecordFromDoc(ce.Doc); rec.State == types.StateHalted {
					count("guardian_monitor_halts", "feed")
					return handleHalt(p)
				}
			}
		// Neither of the next two is acted on here: the pass that sees it
		// is the next tick's, so the timer is pulled in to that tick.
		case <-evicted:
			evicted = nil // closed: fires once
			clock.Rearm(tick, watchTick-d.Clock.Since(armed)%watchTick)
			goto wait
		case <-markerWritten:
			clock.Rearm(tick, watchTick-d.Clock.Since(armed)%watchTick)
			goto wait
		case <-tick.C():
			// What changed without an event is looked at, at the top of
			// the loop.
			if d.Clock.Now().Sub(lastList) >= watchRelist {
				// Long-interval liveness backstop: ask both sources of
				// truth directly in case either stream wedged.
				lastList = d.Clock.Now()
				count("guardian_monitor_backstops")
				if haltedVia("backstop") {
					return handleHalt(p)
				}
				if !relist() {
					continue
				}
				saveCursor()
			}
		}
	}
}

// resultsStored checks the helper's stored marker on the shared volume.
// The monitor asks every wakeup while the job is STORING, so the marker
// is read only once it exists. unreadable tells a marker (or a volume)
// that could not be read from one not written yet: only the second will
// be announced by a write.
func resultsStored(p Params) (stored, unreadable bool) {
	vol, err := p.Deps.NFS.Volume(p.volume)
	if err != nil {
		return false, true
	}
	if !vol.Exists(helper.ResultsStoredMarker) {
		return false, false
	}
	raw, err := vol.Read(helper.ResultsStoredMarker)
	stored = err == nil && string(raw) == "ok"
	return stored, !stored
}

// restoreShippedLogs re-seeds a freshly provisioned volume with the
// logs and metrics already shipped to the results bucket, so a redeploy
// (preemption, drain, crash rollback) appends to the job's history
// instead of amputating it — later shipments replace the bucket objects
// with the full file, and "reliable streaming of logs from the job,
// irrespective of the stage it is in" holds across incarnations. The
// rollback to the last checkpoint stays visible in the metric series,
// as the paper observes for restarted jobs.
func restoreShippedLogs(p Params) {
	d, jobID, m := p.Deps, p.JobID, p.Manifest
	vol, err := d.NFS.Volume(p.volume)
	if err != nil {
		return
	}
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	for l := 0; l < m.Learners; l++ {
		key := learner.ResultLogKey(jobID, l)
		if obj, err := d.ObjectStore.Get(m.Results.Bucket, key, creds); err == nil && len(obj.Data) > 0 {
			vol.Write(learner.LogPath(l), obj.Data)
		}
		key = learner.ResultMetricsKey(jobID, l)
		if obj, err := d.ObjectStore.Get(m.Results.Bucket, key, creds); err == nil && len(obj.Data) > 0 {
			vol.Write(learner.MetricsPath(l), obj.Data)
		}
	}
}

// shipLogs persists every learner's logs and metrics from the shared
// volume to the results bucket before teardown destroys the volume. The
// store-results helper does this on the success path; the Guardian does
// it for failures and halts, honoring "reliable streaming of logs from
// the job, irrespective of the stage it is in, even if it crashes/fails".
func shipLogs(p Params) {
	d, jobID, m := p.Deps, p.JobID, p.Manifest
	vol, err := d.NFS.Volume(p.volume)
	if err != nil {
		return
	}
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	for l := 0; l < m.Learners; l++ {
		if raw, err := vol.Read(learner.LogPath(l)); err == nil {
			key := learner.ResultLogKey(jobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, key, raw, creds)
		}
		if raw, err := vol.Read(learner.MetricsPath(l)); err == nil {
			key := learner.ResultMetricsKey(jobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, key, raw, creds)
		}
	}
}

// Rollback deletes every cluster resource a job's (possibly crashed)
// Guardian may have created: network policy, learner StatefulSet, gang
// reservation, helper Deployment, shared volume. All deletions are
// name-addressed and idempotent. Guardian rollback is also gang
// cancellation: the learner pod group's GPU reservation disappears with
// its pods, so a half-deployed job never pins capacity. The LCM's
// garbage collector calls this too, so the resource list lives in
// exactly one place.
func Rollback(d *core.Deps, jobID string) {
	d.Kube.RemoveNetworkPolicy(PolicyName(jobID))
	d.Kube.DeleteStatefulSet(LearnerSetName(jobID))
	d.Kube.CancelGang(GangName(jobID))
	d.Kube.DeleteDeployment(HelperName(jobID))
	d.NFS.Release(VolumeName(jobID))
}

func rollback(d *core.Deps, jobID string) { Rollback(d, jobID) }

// teardown releases a fully deployed job's resources after it reaches a
// terminal state. The NFS volume is kept briefly for log draining and
// released with the rest (logs were already shipped to the object store
// by the log-collector).
func teardown(d *core.Deps, jobID string) {
	rollback(d, jobID)
}

// cleanupEtcd removes the job's coordination keys in one Txn: all or
// nothing, one log entry at one revision.
func cleanupEtcd(d *core.Deps, jobID string) {
	kvs, err := d.Etcd.Range(types.JobPrefix(jobID))
	if err != nil {
		return
	}
	DeleteKeys(d, kvs)
}

// DeleteKeys deletes every key of kvs in one guard-free Txn: one log
// entry, committed at one revision, so watchers see the keys go together
// and however the call ends the keys are all there or all gone, never
// some. The Guardian's cleanup and preemption and the LCM's garbage
// collector all reap a job's keys through it; a Txn that fails leaves
// every key for the LCM's next sweep, which re-lists the prefix until it
// reads empty.
func DeleteKeys(d *core.Deps, kvs []etcd.KV) {
	if len(kvs) == 0 {
		return // an empty Txn would be a read
	}
	ops := make([]etcd.TxnOp, len(kvs))
	for i, kv := range kvs {
		ops[i] = etcd.TxnOp{Type: etcd.EventDelete, Key: kv.Key}
	}
	_, _, _ = d.Etcd.Txn(nil, ops, nil)
}

func failJob(d *core.Deps, jobID, reason string) {
	_, _ = d.TransitionJob(jobID, types.StateFailed, reason)
}
