// Package lcm implements the DLaaS Lifecycle Manager microservice: "the
// LCM is responsible for the job from submission to completion/failure,
// i.e., the deployment, monitoring, garbage collection, and
// user-initiated termination of the job". The LCM's sole deployment
// action is deliberately tiny — instantiate a Guardian as a Kubernetes
// Job ("a very quick (less than 3s in our experiments) single step
// process") — so the multi-step, failure-prone provisioning work happens
// under the Guardian's crash-restart umbrella instead.
package lcm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/guardian"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/kube"
	"repro/internal/rpc"
)

// Methods exposed on the RPC fabric.
const (
	// MethodDeploy deploys a queued job: DeployRequest -> DeployResponse.
	MethodDeploy = "deploy"
	// MethodHalt terminates a job: HaltRequest -> HaltResponse.
	MethodHalt = "halt"
)

// guardianBackoffLimit is how many Guardian pod failures the hosting
// Kubernetes Job tolerates. Guardian crashes are expected (that is the
// design), so the limit is generous; the Guardian's own deploy-attempt
// counter is what bounds retries.
const guardianBackoffLimit = 25

// sweepInterval is the cadence of the QUEUED-job recovery sweep while
// the change feed is unavailable (runPoll).
const sweepInterval = 2 * time.Second

// watchBackstop is the liveness sweep cadence: the change
// feed drives deployment and GC, and a full sweep at this long interval
// catches anything a lost event (or a Guardian still unwinding at GC
// time) would otherwise strand.
const watchBackstop = 10 * time.Second

// DeployRequest asks the LCM to take over a queued job.
type DeployRequest struct {
	JobID string
}

// DeployResponse acknowledges guardianship.
type DeployResponse struct {
	GuardianJob string
}

// HaltRequest asks for user-initiated termination.
type HaltRequest struct {
	JobID string
}

// HaltResponse reports the resulting state.
type HaltResponse struct {
	State types.JobState
}

// Service is one LCM instance.
type Service struct {
	deps *core.Deps
	// GuardianStepDelay is forwarded to Guardians (test hook).
	GuardianStepDelay time.Duration
	// MaxDeployAttempts is forwarded to Guardians.
	MaxDeployAttempts int

	mu        sync.Mutex
	gcDone    map[string]bool   // jobs already garbage-collected
	deploying map[string]string // jobs a deploy call is working on, to their Guardian Job's name
}

// New creates an LCM service.
func New(deps *core.Deps) *Service {
	return &Service{deps: deps, gcDone: make(map[string]bool), deploying: make(map[string]string)}
}

// ContainerSpec builds the LCM container for its Deployment. The LCM is
// a Go microservice; its Fig. 4 recovery window is 4-6s.
func (s *Service) ContainerSpec() kube.ContainerSpec {
	return kube.ContainerSpec{
		Name:       "lcm",
		Image:      "dlaas/lcm",
		StartDelay: 4 * time.Second,
		Run:        s.run,
	}
}

// run registers the instance on the RPC fabric, performs the recovery
// sweep for jobs accepted but never deployed, and serves until killed.
func (s *Service) run(ctx *kube.ContainerCtx) int {
	reg := s.deps.Bus.Register(core.LCMService, ctx.PodName(), s.handle)
	defer reg.Deregister()
	return s.runWatch(ctx)
}

// runPoll is runWatch's fallback when the change feed cannot open:
// re-list every job each sweep.
//
// Recovery sweep: any job still QUEUED (e.g. the API durably accepted
// it and then the LCM crashed before deploying) gets a Guardian now —
// "submitted jobs are never lost". The sweep repeats so QUEUED jobs are
// picked up even if a deploy races a crash. Garbage collection — "the
// deployment, monitoring, garbage collection, and user-initiated
// termination of the job" — runs in the same loop: terminal jobs'
// leftover cluster resources are reaped as a backstop behind the
// Guardian's own teardown.
func (s *Service) runPoll(ctx *kube.ContainerCtx) int {
	for {
		s.sweepQueued()
		s.garbageCollect()
		if !ctx.Sleep(sweepInterval) {
			return 0
		}
	}
}

// runWatch drives deployment and garbage collection from the jobs
// collection's change feed: one initial recovery sweep (the "list" of
// list-then-watch), then a Guardian per QUEUED record and a reap per
// terminal record as the transitions commit — no per-sweep re-list of
// every job. A full sweep remains at a long interval as the liveness
// backstop.
func (s *Service) runWatch(ctx *kube.ContainerCtx) int {
	feed, cancel, err := s.deps.Jobs().Watch()
	if err != nil {
		// Change feed unavailable: degrade to polling rather than dying.
		return s.runPoll(ctx)
	}
	defer cancel()

	s.sweepQueued()
	s.garbageCollect()
	tick := s.deps.Clock.NewTimer(watchBackstop) // one timer, re-armed every pass
	defer tick.Stop()
	for ; ; clock.Rearm(tick, watchBackstop) {
		select {
		case <-ctx.Killed():
			return 0
		case ce := <-feed:
			rec := core.RecordFromDoc(ce.Doc)
			if s.deps.Metrics != nil {
				s.deps.Metrics.Inc("lcm_feed_events", string(rec.State))
			}
			switch {
			case rec.State == types.StateQueued:
				_, _ = s.deploy(rec.ID)
			case rec.State.Terminal():
				s.collectJob(rec)
			}
		case <-tick.C():
			s.sweepQueued()
			s.garbageCollect()
		}
	}
}

func (s *Service) sweepQueued() {
	jobs, err := s.deps.ListJobs("")
	if err != nil {
		return
	}
	for _, rec := range jobs {
		if rec.State == types.StateQueued {
			_, _ = s.deploy(rec.ID)
		}
	}
}

// garbageCollect reaps the resources of terminal jobs: the finished
// Guardian Kubernetes Job object, and — should a Guardian have died
// before its own teardown completed — the job's StatefulSet, helper
// Deployment, NFS volume, network policy and etcd keys. All deletions
// are name-addressed and idempotent.
func (s *Service) garbageCollect() {
	jobs, err := s.deps.ListJobs("")
	if err != nil {
		return
	}
	for _, rec := range jobs {
		if rec.State.Terminal() {
			s.collectJob(rec)
		}
	}
}

// collectJob reaps one terminal job's resources: the finished Guardian
// Kubernetes Job object, and — should a Guardian have died before its
// own teardown completed — the job's cluster resources and etcd keys.
func (s *Service) collectJob(rec types.JobRecord) {
	s.mu.Lock()
	done := s.gcDone[rec.ID]
	s.mu.Unlock()
	if done {
		// Already reaped by this instance; a restarted LCM re-reaps
		// once (idempotent deletes), which is the intended backstop.
		return
	}
	if kj := s.deps.Kube.JobByName(guardian.KubeJobName(rec.ID)); kj != nil {
		if done, failed, _ := kj.Status(); done || failed {
			s.deps.Kube.DeleteJob(kj.Name())
		} else {
			// Guardian still unwinding; let it finish first (the
			// backstop sweep retries).
			return
		}
	}
	guardian.Rollback(s.deps, rec.ID)
	// Serializable (stale-tolerant) listing for the bulk reap: the
	// deletes are idempotent and the backstop sweep re-runs, so a
	// replica-local snapshot is enough to make progress, and it costs no
	// consensus work. The keys go in one Txn, as the Guardian's own
	// cleanup deletes them: all or nothing.
	if kvs, err := s.deps.Etcd.SerializableRange(types.JobPrefix(rec.ID)); err == nil {
		guardian.DeleteKeys(s.deps, kvs)
	}
	// The done-latch, though, demands a linearizable empty observation
	// (a read-index Range — still zero log entries): a stale-empty local
	// listing must not end the reap while committed keys exist on
	// replicas that have yet to catch up. Without a quorum the confirm
	// fails and the backstop keeps sweeping — availability degrades to
	// retry, never to a leak.
	confirm, err := s.deps.Etcd.Range(types.JobPrefix(rec.ID))
	if err != nil {
		return
	}
	if len(confirm) > 0 {
		// Stragglers the stale listing missed: reap them and let the
		// next sweep confirm.
		guardian.DeleteKeys(s.deps, confirm)
		return
	}
	s.mu.Lock()
	s.gcDone[rec.ID] = true
	s.mu.Unlock()
}

// handle dispatches RPC calls.
func (s *Service) handle(_ context.Context, method string, req any) (any, error) {
	switch method {
	case MethodDeploy:
		r, ok := req.(DeployRequest)
		if !ok {
			return nil, fmt.Errorf("lcm: bad request type %T", req)
		}
		return s.deploy(r.JobID)
	case MethodHalt:
		r, ok := req.(HaltRequest)
		if !ok {
			return nil, fmt.Errorf("lcm: bad request type %T", req)
		}
		return s.halt(r.JobID)
	default:
		return nil, fmt.Errorf("lcm: unknown method %q", method)
	}
}

// deploy instantiates the job's Guardian as a Kubernetes Job. It is
// idempotent: an existing Guardian Job satisfies the request, and so does
// another deploy call of the job in progress — the API's submit RPC and
// the jobs feed both ask for every job. The claim ends when the call
// returns, so a deploy that failed is retried by the next sweep.
func (s *Service) deploy(jobID string) (DeployResponse, error) {
	s.mu.Lock()
	name, claimed := s.deploying[jobID]
	if !claimed {
		name = guardian.KubeJobName(jobID)
		s.deploying[jobID] = name
	}
	s.mu.Unlock()
	if claimed {
		return DeployResponse{GuardianJob: name}, nil
	}
	defer func() {
		s.mu.Lock()
		delete(s.deploying, jobID)
		s.mu.Unlock()
	}()
	if s.deps.Kube.JobByName(name) != nil {
		return DeployResponse{GuardianJob: name}, nil
	}
	rec, err := s.deps.GetJob(context.Background(), jobID)
	if err != nil {
		return DeployResponse{}, err
	}
	if rec.State.Terminal() {
		return DeployResponse{GuardianJob: name}, nil
	}
	m, err := manifest.Decode(rec.Manifest)
	if err != nil {
		_, _ = s.deps.TransitionJob(jobID, types.StateFailed, "manifest corrupted: "+err.Error())
		return DeployResponse{}, err
	}
	spec := kube.PodSpec{
		Labels: map[string]string{"app": "dlaas-guardian", "job": jobID},
		Containers: []kube.ContainerSpec{guardian.ContainerSpec(guardian.Params{
			Deps:              s.deps,
			JobID:             jobID,
			Manifest:          m,
			MaxDeployAttempts: s.MaxDeployAttempts,
			StepDelay:         s.GuardianStepDelay,
		})},
		RestartPolicy: kube.RestartNever,
	}
	if _, err := s.deps.Kube.CreateJob(name, guardianBackoffLimit, spec); err != nil {
		return DeployResponse{}, fmt.Errorf("creating guardian job: %w", err)
	}
	return DeployResponse{GuardianJob: name}, nil
}

// halt marks the job HALTED; the Guardian observes the state and tears
// the job down. Jobs without a Guardian yet (QUEUED) are halted directly.
func (s *Service) halt(jobID string) (HaltResponse, error) {
	rec, err := s.deps.TransitionJob(jobID, types.StateHalted, "user requested termination")
	if err != nil {
		return HaltResponse{}, err
	}
	return HaltResponse{State: rec.State}, nil
}

// Call is a typed client helper for other services and tests.
func Call[Req, Resp any](bus *rpc.Bus, method string, req Req) (Resp, error) {
	return CallCtx[Req, Resp](context.Background(), bus, method, req)
}

// CallCtx is Call with a caller context, so callers holding a trace
// span context (trace.NewContext) get the call recorded as a span.
func CallCtx[Req, Resp any](ctx context.Context, bus *rpc.Bus, method string, req Req) (Resp, error) {
	var zero Resp
	out, err := bus.Call(ctx, core.LCMService, method, req)
	if err != nil {
		return zero, err
	}
	resp, ok := out.(Resp)
	if !ok {
		return zero, fmt.Errorf("lcm: unexpected response type %T", out)
	}
	return resp, nil
}
