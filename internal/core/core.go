// Package core wires the DLaaS core services (API, Lifecycle Manager,
// Guardian, Helper, Learner) to the platform substrates they depend on
// (Kubernetes, etcd, MongoDB, object store, NFS, the RPC fabric). It
// corresponds to the paper's "DLaaS Core-Services Layer" plus the
// "DLaaS Helpers".
package core

import (
	"sync/atomic"

	"repro/internal/clock"
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

// Service names on the RPC fabric.
const (
	// APIService is the user-facing endpoint (REST/GRPC in the paper).
	APIService = "dlaas-api"
	// LCMService is the Lifecycle Manager.
	LCMService = "dlaas-lcm"
)

// MongoDB collection names.
const (
	// JobsCollection holds one JobRecord document per training job.
	JobsCollection = "training_jobs"
)

// Deps bundles the substrate handles every core service needs. One Deps
// value is shared across the whole platform instance.
type Deps struct {
	Clock       clock.Clock
	Bus         *rpc.Bus
	Kube        *kube.Cluster
	Etcd        *etcd.Store
	Mongo       *mongo.DB
	ObjectStore *objectstore.Store
	NFS         *nfs.Server
	// DataLink is the shared datacenter network for training-data
	// streaming and checkpoint traffic.
	DataLink *netsim.SharedLink
	// DefaultGPU is the cluster's GPU model for jobs that do not pin one.
	DefaultGPU gpu.Spec
	// Metrics is the platform instrumentation registry (metering).
	Metrics *metrics.Registry
	// Trace is the platform span recorder; nil disables tracing (every
	// trace API is nil-safe, so call sites need no guards).
	Trace *trace.Recorder

	jobSeq atomic.Uint64
}

// NextJobID allocates a platform-unique job identifier.
func (d *Deps) NextJobID() string {
	n := d.jobSeq.Add(1)
	return jobIDFromSeq(n)
}

func jobIDFromSeq(n uint64) string {
	const digits = "0123456789"
	buf := []byte("job-000000")
	for i := len(buf) - 1; n > 0 && i >= 4; i-- {
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf)
}

// Jobs returns the MongoDB jobs collection.
func (d *Deps) Jobs() *mongo.Collection {
	return d.Mongo.Collection(JobsCollection)
}
