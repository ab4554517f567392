package dlaas

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/api"
	"repro/internal/core/lcm"
	"repro/internal/etcd"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/metrics"
	"repro/internal/mongo"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// ErrNotReady indicates the platform services did not come up in time.
var ErrNotReady = errors.New("dlaas: platform not ready")

// Options configure a Platform. The zero value is completed by defaults.
type Options struct {
	// Clock overrides the default virtual clock (e.g. clock.NewReal()
	// for wall-clock demos). The platform owns and closes a defaulted
	// virtual clock; a caller-provided clock is left alone.
	Clock clock.Clock

	// Nodes is the GPU worker count (default 4).
	Nodes int
	// GPUsPerNode is each worker's GPU count (default 4).
	GPUsPerNode int
	// GPUType is the workers' accelerator model (default "K80").
	GPUType string

	// APIReplicas is the API deployment size (default 2).
	APIReplicas int
	// EtcdReplicas is the etcd cluster size (default 3, as the paper).
	EtcdReplicas int
	// MetadataShards is the shard count of the metadata-plane store
	// engine backing both MongoDB and each etcd replica's state machine
	// (default: the store package default). More shards buy write
	// parallelism for high job-concurrency workloads; 1 degenerates to a
	// single-lock store.
	MetadataShards int

	// Scheduling selects the per-pod placement policy for the simulated
	// cluster (default kube.PolicyBinPack; kube.PolicySpread trades
	// utilization for node-failure blast radius).
	Scheduling kube.SchedulingPolicy
	// DisablePreemption turns off priority preemption in the gang
	// scheduler: higher-priority jobs then wait instead of evicting
	// lower-priority learner gangs.
	DisablePreemption bool
	// DisableBackfill turns off backfilling small jobs into GPU holes
	// while a large gang waits at the head of the queue.
	DisableBackfill bool

	// EvictionGracePeriod is how long a preempted or drained learner
	// gang gets to write an on-demand checkpoint before its pods are
	// force-killed (default 30s): the scheduler posts an eviction intent,
	// the Guardian relays it, the learners checkpoint and ack, and only
	// then does the eviction complete — so an evicted job resumes from
	// the moment of eviction instead of the last periodic checkpoint.
	// Sub-second values effectively test the force-eviction path.
	EvictionGracePeriod time.Duration
	// ImmediateEviction restores the pre-protocol behavior for A/B
	// comparison: preemption and node drain kill learner pods instantly,
	// and a job forfeits up to a full CheckpointInterval of training.
	ImmediateEviction bool

	// ReadMode selects how etcd Get/Range (and read-only Txn) are
	// served: "leaseread" (the default) answers linearizably at
	// amortized quorum cost — check-quorum leases make reads free while
	// the leader's lease is live, and coalesced confirmation rounds
	// resolve every concurrent read at once when it is not;
	// "readindex" pays one dedicated leader heartbeat round per read
	// (the pre-lease behavior, kept for A/B comparison — see
	// BenchmarkEtcdReads); "propose" sequences every read through the
	// Raft log (the pre-read-index behavior, same A/B role);
	// "serializable" reads any live replica's local state with bounded
	// staleness and no quorum requirement.
	ReadMode string

	// Replication selects the Raft replication discipline: "pipeline"
	// (the default) keeps a bounded in-flight AppendEntries window per
	// follower with optimistic nextIndex advance; "stopwait" re-ships
	// the full pending suffix each broadcast and advances only on acks
	// (the pre-pipelining behavior, kept for A/B comparison).
	Replication string

	// ControlPlane selects how the core services observe state changes:
	// "watch" (the default) drives the Guardian and LCM from
	// revision-ordered etcd watches and the metadata change feed, with
	// long-interval polls kept only as a liveness backstop; "poll"
	// preserves the pre-refactor fixed-interval polling loops for A/B
	// comparison (see BenchmarkControlPlane).
	ControlPlane string

	// Tracing enables ("on", the default) or disables ("off") the
	// deterministic span recorder: job-lifecycle span trees on the
	// virtual clock, served via /traces/{jobID} and Platform.Trace().
	// "off" exists for the overhead A/B (see BenchmarkTraceOverhead).
	Tracing string

	// MaxDeployAttempts bounds Guardian deployment retries (default 3).
	MaxDeployAttempts int
	// GuardianStepDelay is the modeled per-step Guardian provisioning
	// work (default 200ms; also the crash-injection window for
	// atomicity tests).
	GuardianStepDelay time.Duration

	// Seed controls all randomized timing jitter.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.GPUsPerNode <= 0 {
		o.GPUsPerNode = 4
	}
	if o.GPUType == "" {
		o.GPUType = "K80"
	}
	if o.APIReplicas <= 0 {
		o.APIReplicas = 2
	}
	if o.EtcdReplicas <= 0 {
		o.EtcdReplicas = 3
	}
	if o.GuardianStepDelay <= 0 {
		o.GuardianStepDelay = 200 * time.Millisecond
	}
	if o.EvictionGracePeriod <= 0 {
		o.EvictionGracePeriod = 30 * time.Second
	}
	if o.ControlPlane == "" {
		o.ControlPlane = core.ControlPlaneWatch
	}
	if o.Tracing == "" {
		o.Tracing = "on"
	}
	return o
}

// Platform is one running DLaaS instance: core services on a simulated
// Kubernetes cluster with all supporting stores.
type Platform struct {
	opts      Options
	clk       clock.Clock
	ownsClock *clock.Sim

	bus     *rpc.Bus
	cluster *kube.Cluster
	etcd    *etcd.Store
	mongo   *mongo.DB
	store   *objectstore.Store
	nfs     *nfs.Server
	link    *netsim.SharedLink

	deps    *core.Deps
	apiDep  *kube.Deployment
	lcmDep  *kube.Deployment
	metrics *metrics.Registry
	trace   *trace.Recorder

	chaos *chaos.Injector
}

// New boots a platform and waits for the core services to serve.
func New(opts Options) (*Platform, error) {
	opts = opts.withDefaults()
	p := &Platform{opts: opts}

	if opts.Clock != nil {
		p.clk = opts.Clock
	} else {
		sim := clock.NewSim()
		p.clk = sim
		p.ownsClock = sim
	}

	defaultGPU, ok := gpu.ByName(opts.GPUType)
	if !ok {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: unknown GPU type %q", opts.GPUType)
	}
	if opts.ControlPlane != core.ControlPlaneWatch && opts.ControlPlane != core.ControlPlanePoll {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: unknown control plane %q", opts.ControlPlane)
	}
	switch opts.Tracing {
	case "on":
		p.trace = trace.NewRecorder(p.clk)
	case "off":
		// p.trace stays nil; every trace call site is nil-safe.
	default:
		p.closePartial()
		return nil, fmt.Errorf("dlaas: unknown tracing mode %q", opts.Tracing)
	}

	p.metrics = metrics.NewRegistry()
	p.nfs = nfs.NewServer(p.clk)
	p.nfs.Instrument(p.metrics)
	p.link = netsim.NewSharedLink(netsim.Ethernet1G, p.clk)
	p.store = objectstore.New(p.clk, p.link)
	p.mongo = mongo.NewSharded(p.clk, opts.MetadataShards)
	p.mongo.Instrument(p.metrics)
	kv, err := etcd.NewWithOptions(opts.EtcdReplicas, p.clk, etcd.StoreOptions{
		Shards:      opts.MetadataShards,
		Replication: opts.Replication,
	})
	if err != nil {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: %w", err)
	}
	p.etcd = kv
	if err := p.etcd.SetReadMode(opts.ReadMode); err != nil {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: %w", err)
	}
	p.etcd.Instrument(p.metrics)
	p.bus = rpc.NewBus(p.clk, rpc.WithTracer(p.trace))

	nodes := make([]kube.NodeSpec, 0, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		nodes = append(nodes, kube.NodeSpec{
			Name:    fmt.Sprintf("gpu-node-%02d", i),
			GPUs:    opts.GPUsPerNode,
			GPUType: opts.GPUType,
		})
	}
	grace := opts.EvictionGracePeriod
	if opts.ImmediateEviction {
		grace = 0
	}
	p.cluster = kube.NewCluster(kube.Config{
		Clock:               p.clk,
		NFS:                 p.nfs,
		Scheduling:          opts.Scheduling,
		DisablePreemption:   opts.DisablePreemption,
		DisableBackfill:     opts.DisableBackfill,
		EvictionGracePeriod: grace,
		Seed:                opts.Seed,
		Trace:               p.trace,
	}, nodes...)
	p.chaos = chaos.New(p.cluster).AttachEtcd(p.etcd).AttachNFS(p.nfs)

	p.deps = &core.Deps{
		Clock:       p.clk,
		Bus:         p.bus,
		Kube:        p.cluster,
		Etcd:        p.etcd,
		Mongo:       p.mongo,
		ObjectStore: p.store,
		NFS:         p.nfs,
		DataLink:    p.link,
		DefaultGPU:  defaultGPU,
		Metrics:     p.metrics,
		Trace:       p.trace,
	}

	apiSvc := api.New(p.deps)
	lcmSvc := lcm.New(p.deps)
	lcmSvc.GuardianStepDelay = opts.GuardianStepDelay
	lcmSvc.MaxDeployAttempts = opts.MaxDeployAttempts
	lcmSvc.ControlPlane = opts.ControlPlane

	p.apiDep, err = p.cluster.CreateDeployment("dlaas-api", opts.APIReplicas, kube.PodSpec{
		Labels:        map[string]string{"app": "dlaas-api"},
		RestartPolicy: kube.RestartAlways,
		Containers:    []kube.ContainerSpec{apiSvc.ContainerSpec()},
	})
	if err != nil {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: starting API: %w", err)
	}
	p.lcmDep, err = p.cluster.CreateDeployment("dlaas-lcm", 1, kube.PodSpec{
		Labels:        map[string]string{"app": "dlaas-lcm"},
		RestartPolicy: kube.RestartAlways,
		Containers:    []kube.ContainerSpec{lcmSvc.ContainerSpec()},
	})
	if err != nil {
		p.closePartial()
		return nil, fmt.Errorf("dlaas: starting LCM: %w", err)
	}

	if err := p.WaitReady(2 * time.Minute); err != nil {
		p.closePartial()
		return nil, err
	}
	return p, nil
}

// WaitReady blocks until every core service has at least one healthy
// instance registered, or the (cluster-time) timeout passes. It waits
// on the bus's registration signal rather than polling: the services
// being waited on announce their own readiness.
func (p *Platform) WaitReady(timeout time.Duration) error {
	if !p.bus.WaitHealthy(timeout, 1, core.APIService, core.LCMService) {
		return fmt.Errorf("%w after %v", ErrNotReady, timeout)
	}
	return nil
}

// Close tears the platform down. It is safe to call once.
func (p *Platform) Close() {
	p.closePartial()
}

func (p *Platform) closePartial() {
	if p.cluster != nil {
		p.cluster.Stop()
	}
	if p.etcd != nil {
		p.etcd.Close()
	}
	if p.mongo != nil {
		p.mongo.Close()
	}
	if p.ownsClock != nil {
		p.ownsClock.Close()
	}
}

// Clock exposes the platform's time source (virtual in tests/benches).
func (p *Platform) Clock() clock.Clock { return p.clk }

// Chaos exposes the failure-injection harness.
func (p *Platform) Chaos() *chaos.Injector { return p.chaos }

// Metrics exposes the platform instrumentation registry: per-tenant
// request metering, API latencies, and operational gauges.
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// Trace exposes the platform span recorder (nil when Tracing is off).
func (p *Platform) Trace() *trace.Recorder { return p.trace }

// Cluster exposes the underlying simulated Kubernetes cluster.
func (p *Platform) Cluster() *kube.Cluster { return p.cluster }

// Etcd exposes the replicated coordination store.
func (p *Platform) Etcd() *etcd.Store { return p.etcd }

// Mongo exposes the metadata database (for fault injection in tests).
func (p *Platform) Mongo() *mongo.DB { return p.mongo }

// NFS exposes the shared-volume server (operation counts, fault
// injection in tests).
func (p *Platform) NFS() *nfs.Server { return p.nfs }

// ObjectStore exposes the training-data/results store.
func (p *Platform) ObjectStore() *objectstore.Store { return p.store }

// CreateDataset stages a synthetic training dataset of the given size in
// a fresh bucket owned by creds. It returns a DataRef ready to embed in
// a manifest.
func (p *Platform) CreateDataset(bucket, key string, size int64, creds Credentials) (DataRef, error) {
	if err := p.store.CreateBucket(bucket, creds); err != nil {
		return DataRef{}, fmt.Errorf("dlaas: staging dataset: %w", err)
	}
	if err := p.store.PutSynthetic(bucket, key, size, creds); err != nil {
		return DataRef{}, fmt.Errorf("dlaas: staging dataset: %w", err)
	}
	return DataRef{Bucket: bucket, Key: key, AccessKey: creds.AccessKey, SecretKey: creds.SecretKey}, nil
}

// CreateResultsBucket provisions an empty results bucket owned by creds.
func (p *Platform) CreateResultsBucket(bucket string, creds Credentials) (DataRef, error) {
	if err := p.store.CreateBucket(bucket, creds); err != nil {
		return DataRef{}, fmt.Errorf("dlaas: creating results bucket: %w", err)
	}
	return DataRef{Bucket: bucket, AccessKey: creds.AccessKey, SecretKey: creds.SecretKey}, nil
}
