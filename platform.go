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

	// EvictionGracePeriod is how long a preempted or drained learner
	// gang gets to write an on-demand checkpoint before its pods are
	// force-killed (default 30s): the scheduler posts an eviction intent,
	// the Guardian relays it, the learners checkpoint and ack, and only
	// then does the eviction complete — so an evicted job resumes from
	// the moment of eviction instead of the last periodic checkpoint.
	// Sub-second values effectively test the force-eviction path.
	EvictionGracePeriod time.Duration

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
	p.trace = trace.NewRecorder(p.clk)

	p.metrics = metrics.NewRegistry()
	p.nfs = nfs.NewServer(p.clk)
	p.nfs.Instrument(p.metrics)
	p.link = netsim.NewSharedLink(netsim.Ethernet1G, p.clk)
	p.store = objectstore.New(p.clk, p.link)
	p.mongo = mongo.New(p.clk)
	p.mongo.Instrument(p.metrics)
	p.etcd = etcd.New(opts.EtcdReplicas, p.clk)
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
	p.cluster = kube.NewCluster(kube.Config{
		Clock:               p.clk,
		NFS:                 p.nfs,
		EvictionGracePeriod: opts.EvictionGracePeriod,
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

	var err error
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

// Trace exposes the platform span recorder: job-lifecycle span trees on
// the virtual clock, also served via /traces/{jobID}.
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
