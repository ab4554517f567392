// Package chaos is the failure-injection and recovery-measurement
// harness behind the paper's Fig. 4 ("These times were calculated by
// manually crashing various components (using the kubectl tool of K8S)
// and measuring time taken for the component to restart"). It kills
// pods, containers and nodes, and measures — in virtual time — how long
// the platform takes to restore the component.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/etcd"
	"repro/internal/kube"
	"repro/internal/nfs"
)

// Common errors.
var (
	// ErrNoTarget indicates no pod matched the selector.
	ErrNoTarget = errors.New("chaos: no matching target")
	// ErrNoRecovery indicates the component did not recover in time.
	ErrNoRecovery = errors.New("chaos: no recovery before deadline")
)

// pollGrain is the recovery-detection polling interval (virtual time);
// it bounds measurement quantization error.
const pollGrain = 20 * time.Millisecond

// await checks cond, a reading of pod state, every pollGrain from now
// until it holds or timeout has passed, and reports whether it held. The
// checks that could see nothing new are not made — it sleeps until the
// cluster signals a pod change, then to the next tick of the cadence —
// so what a caller measures stays quantized to pollGrain, and waiting out
// a slow recovery costs no clock events.
func (i *Injector) await(timeout time.Duration, cond func() bool) bool {
	wake, cancel := i.cluster.SubscribePods()
	defer cancel()
	// expired ends a wait no pod change will; the loop condition decides
	// a tick that falls on the deadline itself (no look is made then).
	deadline := i.clk.Now().Add(timeout)
	expired := make(chan struct{})
	defer i.clk.AfterFunc(timeout, func() { close(expired) }).Stop()
	for i.clk.Now().Before(deadline) {
		if cond() {
			return true
		}
		if !clock.SleepUntil(i.clk, pollGrain, wake, expired) {
			break
		}
	}
	return false
}

// Injector performs fault injection against one cluster and, when the
// handles are attached, the platform's shared substrates (etcd, NFS).
type Injector struct {
	cluster *kube.Cluster
	clk     clock.Clock
	etcd    *etcd.Store
	nfs     *nfs.Server
}

// New creates an injector for the cluster.
func New(cluster *kube.Cluster) *Injector {
	return &Injector{cluster: cluster, clk: cluster.Clock()}
}

// KillPod crash-kills the named pod (kubectl delete pod --force).
func (i *Injector) KillPod(name string) error {
	return i.cluster.DeletePod(name)
}

// runningPod returns the first Running pod matching selector.
func (i *Injector) runningPod(selector map[string]string) *kube.Pod {
	for _, p := range i.cluster.Pods(selector) {
		if p.Phase() == kube.PodRunning {
			return p
		}
	}
	return nil
}

// MeasurePodRecovery kills one Running pod matching selector and
// measures the virtual time until a replacement — a pod that did not
// exist before the kill — is Running. This is the paper's component-
// recovery experiment: the pod's controller (Deployment, StatefulSet or
// Job) provides the recovery. Pre-existing replicas (e.g. the second API
// instance) keep serving but do not count as recovery of the killed one.
func (i *Injector) MeasurePodRecovery(selector map[string]string, timeout time.Duration) (time.Duration, error) {
	victim := i.runningPod(selector)
	if victim == nil {
		return 0, fmt.Errorf("selecting %v: %w", selector, ErrNoTarget)
	}
	start := i.clk.Now()
	// Snapshot and kill under one cluster quiescent point: a pod the
	// controller schedules concurrently must not land in the before-set
	// (it IS the recovery) nor, if created pre-kill, count as one.
	snapshot, err := i.cluster.DeletePodAndSnapshot(victim.Name(), selector)
	if err != nil {
		return 0, fmt.Errorf("killing %s: %w", victim.Name(), err)
	}
	before := make(map[*kube.Pod]bool, len(snapshot))
	for _, p := range snapshot {
		before[p] = true
	}
	replaced := func() bool {
		for _, p := range i.cluster.Pods(selector) {
			if !before[p] && p.Phase() == kube.PodRunning {
				return true
			}
		}
		return false
	}
	if !i.await(timeout, replaced) {
		return 0, fmt.Errorf("selector %v after %v: %w", selector, timeout, ErrNoRecovery)
	}
	return i.clk.Since(start), nil
}

// Sample repeats a measurement n times with the given settle pause
// between runs and returns the observed durations. The pause separates
// consecutive measurements only — there is none after the last, so the
// total virtual cost is exactly the measurements plus (n-1) settles and
// downstream schedules (campaign steps, back-to-back experiments) are
// not pushed late by a trailing idle window.
func (i *Injector) Sample(n int, settle time.Duration, measure func() (time.Duration, error)) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		if k > 0 {
			i.clk.Sleep(settle)
		}
		d, err := measure()
		if err != nil {
			return out, fmt.Errorf("sample %d: %w", k, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// MinMax summarizes a sample as its range, the format of the paper's
// Fig. 4 ("3-5s").
func MinMax(ds []time.Duration) (lo, hi time.Duration) {
	for _, d := range ds {
		if lo == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}
