// Package kube is an in-process simulation of the Kubernetes control
// plane as DLaaS uses it: pods scheduled onto GPU nodes, Deployments that
// keep microservice replicas alive, Jobs that run a task to completion
// with restart-on-crash (the Guardian's atomicity anchor), StatefulSets
// with stable learner identities, persistent volume claims binding shared
// NFS volumes, network policies isolating tenants, and kubectl-style
// crash injection. Pod lifecycle timing (scheduling, image/volume
// binding, process start) is modeled on the virtual clock so the paper's
// Fig. 4 component-recovery measurements can be reproduced.
package kube

import (
	"fmt"
	"time"
)

// PodPhase is the pod lifecycle state.
type PodPhase int

// Pod phases, mirroring the Kubernetes states DLaaS observes.
const (
	PodPending PodPhase = iota + 1
	PodCreating
	PodRunning
	PodSucceeded
	PodFailed
)

// String implements fmt.Stringer.
func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodCreating:
		return "ContainerCreating"
	case PodRunning:
		return "Running"
	case PodSucceeded:
		return "Succeeded"
	case PodFailed:
		return "Failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Terminal reports whether the phase is final.
func (p PodPhase) Terminal() bool { return p == PodSucceeded || p == PodFailed }

// RestartPolicy governs in-place container restarts by the kubelet.
type RestartPolicy int

// Restart policies.
const (
	// RestartAlways restarts containers regardless of exit code
	// (Deployments, StatefulSets).
	RestartAlways RestartPolicy = iota + 1
	// RestartOnFailure restarts only non-zero exits (Jobs).
	RestartOnFailure
	// RestartNever lets the pod terminate on first container exit.
	RestartNever
)

// String implements fmt.Stringer.
func (r RestartPolicy) String() string {
	switch r {
	case RestartAlways:
		return "Always"
	case RestartOnFailure:
		return "OnFailure"
	case RestartNever:
		return "Never"
	default:
		return fmt.Sprintf("restart(%d)", int(r))
	}
}

// ProcessFunc is a container's main process. It runs on its own
// goroutine; it should return its exit code, and must return promptly
// after ctx.Killed() is closed. A nil ProcessFunc models a server process
// that runs until killed.
type ProcessFunc func(ctx *ContainerCtx) int

// ContainerSpec describes one container in a pod.
type ContainerSpec struct {
	// Name identifies the container within its pod.
	Name string
	// Image names the container image. Images matter for start latency:
	// heavyweight DL framework images start slower than Go binaries.
	Image string
	// StartDelay is how long the process takes from container start to
	// readiness (image-dependent: TF/Caffe runtimes are slow to boot).
	StartDelay time.Duration
	// Run is the process body. Nil runs until killed.
	Run ProcessFunc
	// Liveness, when non-nil, is polled every LivenessInterval while
	// the process runs; a false result kills the process so the restart
	// policy can recover it. This is the kubelet-side failure detector
	// for hung (not crashed) processes, complementing the exit-file
	// detection the DLaaS controller performs.
	Liveness func() bool
	// LivenessInterval overrides the default 10s probe cadence.
	LivenessInterval time.Duration
}

// PodSpec is the template for a pod.
type PodSpec struct {
	// Name is the pod's base name (controllers append identity suffixes).
	Name string
	// Labels select pods for services and network policies.
	Labels map[string]string
	// Tenant is the owning tenant for isolation accounting.
	Tenant string
	// Containers run concurrently inside the pod.
	Containers []ContainerSpec
	// RestartPolicy governs kubelet in-place restarts.
	RestartPolicy RestartPolicy
	// GPUs requested (scheduler resource accounting).
	GPUs int
	// GPUType optionally constrains the node's GPU type.
	GPUType string
	// Gang, when set, binds the pod to the named pod group's atomic GPU
	// reservation (see Cluster.SubmitGang) instead of the per-pod
	// scheduler. The pod stays Pending until its gang is admitted.
	Gang string
	// Volumes are NFS volume names bound at pod start via PVCs. Binding
	// adds start latency.
	Volumes []string
	// BindsObjectStore adds the object-store credential/mount latency
	// observed on learner restarts ("binding to cloud object store and
	// persistent NFS volumes takes longer").
	BindsObjectStore bool
}

// clone deep-copies the spec so controllers can stamp out pods safely.
func (s PodSpec) clone() PodSpec {
	out := s
	out.Labels = make(map[string]string, len(s.Labels))
	for k, v := range s.Labels {
		out.Labels[k] = v
	}
	out.Containers = make([]ContainerSpec, len(s.Containers))
	copy(out.Containers, s.Containers)
	out.Volumes = make([]string, len(s.Volumes))
	copy(out.Volumes, s.Volumes)
	return out
}

// NodeSpec describes a cluster worker machine.
type NodeSpec struct {
	// Name identifies the node.
	Name string
	// GPUs is the allocatable GPU count.
	GPUs int
	// GPUType is the installed accelerator model (e.g. "K80").
	GPUType string
}
