// Package api implements the DLaaS API microservice: the user-facing
// endpoint that "handles all the incoming API requests including load
// balancing, metering, and access management". Instances register
// dynamically in the service registry, which provides load balancing and
// fail-over. The submission path writes job metadata to MongoDB before
// acknowledging, so accepted jobs survive any subsequent crash.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/guardian"
	"repro/internal/core/lcm"
	"repro/internal/core/learner"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/kube"
	"repro/internal/objectstore"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

// Methods exposed on the RPC fabric.
const (
	// MethodSubmit accepts a job: SubmitRequest -> SubmitResponse.
	MethodSubmit = "submit"
	// MethodStatus reads job state: StatusRequest -> StatusResponse.
	MethodStatus = "status"
	// MethodList lists a tenant's jobs: ListRequest -> ListResponse.
	MethodList = "list"
	// MethodHalt terminates a job: HaltRequest -> HaltResponse.
	MethodHalt = "halt"
	// MethodLogs streams training logs: LogsRequest -> LogsResponse.
	MethodLogs = "logs"
	// MethodEvents returns the state history: EventsRequest -> EventsResponse.
	MethodEvents = "events"
	// MethodMetrics returns the training progress graph:
	// MetricsRequest -> MetricsResponse.
	MethodMetrics = "metrics"
	// MethodClusterInfo returns platform utilization:
	// ClusterInfoRequest -> ClusterInfoResponse.
	MethodClusterInfo = "cluster-info"
)

// readMethods are the methods that only read: each has no effect, and its
// first wait is authorizedJob's MongoDB read, which pays the call's RPC
// legs in the same sleep as its own latency (rpc.Bus.Register). Submit and
// halt act, list reads with a scan (Collection.Find) that takes no
// context, and cluster-info reads kube before MongoDB.
var readMethods = []string{MethodStatus, MethodEvents, MethodLogs, MethodMetrics}

// ErrForbidden indicates a cross-tenant access attempt.
var ErrForbidden = errors.New("api: forbidden")

// SubmitRequest carries a serialized manifest.
type SubmitRequest struct {
	Tenant   string
	Manifest string
}

// SubmitResponse acknowledges a durably recorded job.
type SubmitResponse struct {
	JobID string
	State types.JobState
}

// StatusRequest identifies a job.
type StatusRequest struct {
	Tenant string
	JobID  string
}

// StatusResponse returns the current record.
type StatusResponse struct {
	Record types.JobRecord
}

// ListRequest selects a tenant's jobs.
type ListRequest struct {
	Tenant string
}

// ListResponse returns the tenant's jobs in ID order.
type ListResponse struct {
	Records []types.JobRecord
}

// HaltRequest identifies a job to terminate.
type HaltRequest struct {
	Tenant string
	JobID  string
}

// HaltResponse returns the resulting state.
type HaltResponse struct {
	State types.JobState
}

// LogsRequest identifies a learner's log stream.
type LogsRequest struct {
	Tenant  string
	JobID   string
	Learner int
}

// LogsResponse carries the log text collected so far.
type LogsResponse struct {
	Text string
}

// EventsRequest identifies a job.
type EventsRequest struct {
	Tenant string
	JobID  string
}

// EventsResponse returns the timestamped state transitions.
type EventsResponse struct {
	Events []types.Event
}

// MetricsRequest identifies a learner's progress graph.
type MetricsRequest struct {
	Tenant  string
	JobID   string
	Learner int
}

// MetricsResponse carries the training progress graph: the series users
// profile jobs with. A job that was restarted shows the rollback to its
// last checkpoint in this series.
type MetricsResponse struct {
	Points []trainsim.MetricPoint
}

// ClusterInfoRequest asks for platform utilization.
type ClusterInfoRequest struct {
	Tenant string
}

// ClusterInfoResponse summarizes cluster capacity and load: what an
// operator (or a user wondering why a job queues) needs at a glance.
type ClusterInfoResponse struct {
	Nodes        int
	NodesDown    int
	TotalGPUs    int
	FreeGPUs     int
	RunningJobs  int
	QueuedJobs   int
	TerminalJobs int
}

// Service is one API instance.
type Service struct {
	deps *core.Deps
}

// New creates an API service.
func New(deps *core.Deps) *Service {
	return &Service{deps: deps}
}

// ContainerSpec builds the API container for its Deployment. Its Fig. 4
// recovery window is 3-5s.
func (s *Service) ContainerSpec() kube.ContainerSpec {
	return kube.ContainerSpec{
		Name:       "api",
		Image:      "dlaas/api",
		StartDelay: 3 * time.Second,
		Run:        s.run,
	}
}

func (s *Service) run(ctx *kube.ContainerCtx) int {
	reg := s.deps.Bus.Register(core.APIService, ctx.PodName(), s.handle, readMethods...)
	defer reg.Deregister()
	<-ctx.Killed()
	return 0
}

// handle dispatches RPC calls, metering every request per tenant and
// method and timing its latency on the server: from the instant the
// request arrives, which for a read method is when the legs it owes end.
// A read that fails before its first wait answers in no time.
func (s *Service) handle(ctx context.Context, method string, req any) (any, error) {
	start := s.deps.Clock.Now().Add(clock.Owed(ctx))
	resp, err := s.dispatch(ctx, method, req)
	if s.deps.Metrics != nil {
		tenant := requestTenant(req)
		s.deps.Metrics.Inc("api_requests_total", method, tenant)
		if err != nil {
			s.deps.Metrics.Inc("api_errors_total", method, tenant)
		}
		s.deps.Metrics.Observe("api_latency", max(s.deps.Clock.Since(start), 0), method)
	}
	return resp, err
}

// requestTenant extracts the tenant identity for metering.
func requestTenant(req any) string {
	switch r := req.(type) {
	case SubmitRequest:
		return r.Tenant
	case StatusRequest:
		return r.Tenant
	case ListRequest:
		return r.Tenant
	case HaltRequest:
		return r.Tenant
	case LogsRequest:
		return r.Tenant
	case EventsRequest:
		return r.Tenant
	case MetricsRequest:
		return r.Tenant
	case ClusterInfoRequest:
		return r.Tenant
	default:
		return ""
	}
}

func (s *Service) dispatch(ctx context.Context, method string, req any) (any, error) {
	switch method {
	case MethodSubmit:
		r, ok := req.(SubmitRequest)
		if !ok {
			return nil, badType(req)
		}
		return s.submit(r)
	case MethodStatus:
		r, ok := req.(StatusRequest)
		if !ok {
			return nil, badType(req)
		}
		rec, err := s.authorizedJob(ctx, r.Tenant, r.JobID)
		if err != nil {
			return nil, err
		}
		return StatusResponse{Record: rec}, nil
	case MethodList:
		r, ok := req.(ListRequest)
		if !ok {
			return nil, badType(req)
		}
		recs, err := s.deps.ListJobs(r.Tenant)
		if err != nil {
			return nil, err
		}
		return ListResponse{Records: recs}, nil
	case MethodHalt:
		r, ok := req.(HaltRequest)
		if !ok {
			return nil, badType(req)
		}
		if _, err := s.authorizedJob(ctx, r.Tenant, r.JobID); err != nil {
			return nil, err
		}
		resp, err := lcm.Call[lcm.HaltRequest, lcm.HaltResponse](s.deps.Bus, lcm.MethodHalt, lcm.HaltRequest{JobID: r.JobID})
		if err != nil {
			return nil, err
		}
		return HaltResponse{State: resp.State}, nil
	case MethodLogs:
		r, ok := req.(LogsRequest)
		if !ok {
			return nil, badType(req)
		}
		return s.logs(ctx, r)
	case MethodEvents:
		r, ok := req.(EventsRequest)
		if !ok {
			return nil, badType(req)
		}
		rec, evs, err := s.deps.JobHistory(ctx, r.JobID)
		if err != nil {
			return nil, err
		}
		if err := authorize(r.Tenant, rec); err != nil {
			return nil, err
		}
		return EventsResponse{Events: evs}, nil
	case MethodMetrics:
		r, ok := req.(MetricsRequest)
		if !ok {
			return nil, badType(req)
		}
		return s.metrics(ctx, r)
	case MethodClusterInfo:
		if _, ok := req.(ClusterInfoRequest); !ok {
			return nil, badType(req)
		}
		return s.clusterInfo()
	default:
		return nil, fmt.Errorf("api: unknown method %q", method)
	}
}

// submit validates the manifest, durably records the job, acknowledges,
// and then nudges the LCM. A failed nudge is harmless: the LCM's
// recovery sweep deploys every QUEUED job.
func (s *Service) submit(r SubmitRequest) (SubmitResponse, error) {
	m, err := manifest.Decode(r.Manifest)
	if err != nil {
		return SubmitResponse{}, err
	}
	id := s.deps.NextJobID()
	now := s.deps.Clock.Now()
	rec := types.JobRecord{
		ID:          id,
		Tenant:      r.Tenant,
		State:       types.StateQueued,
		Manifest:    r.Manifest,
		SubmittedAt: now,
		UpdatedAt:   now,
	}
	// Durability point: after this write the job can never be lost.
	if err := s.deps.InsertJob(rec); err != nil {
		return SubmitResponse{}, err
	}
	// Best-effort immediate dispatch, attributed to the job's trace so
	// the submit->deploy RPC hop appears in the span tree.
	ctx := trace.NewContext(context.Background(), trace.JobRoot(id))
	_, _ = lcm.CallCtx[lcm.DeployRequest, lcm.DeployResponse](ctx, s.deps.Bus, lcm.MethodDeploy, lcm.DeployRequest{JobID: id})
	_ = m
	return SubmitResponse{JobID: id, State: types.StateQueued}, nil
}

// metrics returns the learner's training progress graph: live from the
// shared volume while it exists, otherwise from the results bucket.
func (s *Service) metrics(ctx context.Context, r MetricsRequest) (MetricsResponse, error) {
	rec, err := s.authorizedJob(ctx, r.Tenant, r.JobID)
	if err != nil {
		return MetricsResponse{}, err
	}
	var raw []byte
	if vol, err := s.deps.NFS.Volume(guardian.VolumeName(r.JobID)); err == nil {
		raw, _ = vol.Read(learner.MetricsPath(r.Learner))
	}
	if raw == nil {
		m, err := manifest.Decode(rec.Manifest)
		if err != nil {
			return MetricsResponse{}, err
		}
		creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
		key := learner.ResultMetricsKey(r.JobID, r.Learner)
		obj, err := s.deps.ObjectStore.Get(m.Results.Bucket, key, creds)
		if err != nil {
			return MetricsResponse{}, nil // no metrics yet
		}
		raw = obj.Data
	}
	var points []trainsim.MetricPoint
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		var pt trainsim.MetricPoint
		if err := json.Unmarshal([]byte(line), &pt); err == nil {
			points = append(points, pt)
		}
	}
	return MetricsResponse{Points: points}, nil
}

// clusterInfo summarizes capacity and job load.
func (s *Service) clusterInfo() (ClusterInfoResponse, error) {
	resp := ClusterInfoResponse{FreeGPUs: s.deps.Kube.FreeGPUs("")}
	for _, n := range s.deps.Kube.Nodes() {
		resp.Nodes++
		if n.Down() {
			resp.NodesDown++
		}
		resp.TotalGPUs += n.Spec.GPUs
	}
	jobs, err := s.deps.ListJobs("")
	if err != nil {
		return resp, err
	}
	for _, rec := range jobs {
		switch {
		case rec.State.Terminal():
			resp.TerminalJobs++
		case rec.State == types.StateQueued:
			resp.QueuedJobs++
		default:
			resp.RunningJobs++
		}
	}
	return resp, nil
}

// logs returns the learner's training log: live from the job's shared
// volume while it exists, otherwise from the results bucket where the
// log-collector shipped it.
func (s *Service) logs(ctx context.Context, r LogsRequest) (LogsResponse, error) {
	rec, err := s.authorizedJob(ctx, r.Tenant, r.JobID)
	if err != nil {
		return LogsResponse{}, err
	}
	if vol, err := s.deps.NFS.Volume(guardian.VolumeName(r.JobID)); err == nil {
		if raw, err := vol.Read(learner.LogPath(r.Learner)); err == nil {
			return LogsResponse{Text: string(raw)}, nil
		}
	}
	m, err := manifest.Decode(rec.Manifest)
	if err != nil {
		return LogsResponse{}, err
	}
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	key := learner.ResultLogKey(r.JobID, r.Learner)
	obj, err := s.deps.ObjectStore.Get(m.Results.Bucket, key, creds)
	if err != nil {
		return LogsResponse{Text: ""}, nil // no logs yet
	}
	return LogsResponse{Text: string(obj.Data)}, nil
}

// authorizedJob loads the job and enforces tenant ownership. Its read pays
// whatever latency ctx owes.
func (s *Service) authorizedJob(ctx context.Context, tenant, jobID string) (types.JobRecord, error) {
	rec, err := s.deps.GetJob(ctx, jobID)
	if err != nil {
		return types.JobRecord{}, err
	}
	if err := authorize(tenant, rec); err != nil {
		return types.JobRecord{}, err
	}
	return rec, nil
}

// authorize enforces tenant ownership of rec ("" tenant = administrative
// access).
func authorize(tenant string, rec types.JobRecord) error {
	if tenant != "" && rec.Tenant != tenant {
		return fmt.Errorf("job %s: %w", rec.ID, ErrForbidden)
	}
	return nil
}

func badType(req any) error {
	return fmt.Errorf("api: bad request type %T", req)
}

// Call is a typed client helper used by the public client and tests.
func Call[Req, Resp any](bus *rpc.Bus, method string, req Req) (Resp, error) {
	var zero Resp
	out, err := bus.Call(context.Background(), core.APIService, method, req)
	if err != nil {
		return zero, err
	}
	resp, ok := out.(Resp)
	if !ok {
		return zero, fmt.Errorf("api: unexpected response type %T", out)
	}
	return resp, nil
}
