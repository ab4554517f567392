package kube

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// exitKilled is the exit code of a killed container process (SIGKILL).
const exitKilled = 137

// Pod is a running (or pending/terminated) pod instance.
type Pod struct {
	cluster *Cluster
	Spec    PodSpec
	owner   ownerRef

	mu         sync.Mutex
	phase      PodPhase
	node       *Node
	containers []containerState // in spec order; fixed at creation
	starting   int              // containers yet to make their first start
	live       int              // supervisors yet to return
	restarts   int
	killed     bool
	killCh     chan struct{}
	doneCh     chan struct{}
}

// containerState tracks one container's current incarnation.
type containerState struct {
	spec     ContainerSpec
	mu       sync.Mutex
	procKill chan struct{} // closes to kill the current process
	running  bool
	exits    int
	lastExit int
}

// ownerRef links a pod to the controller that manages it.
type ownerRef interface {
	// podTerminated is invoked exactly once when the pod reaches a
	// terminal phase or is deleted. phase is the final phase.
	podTerminated(p *Pod, phase PodPhase)
}

func newPod(c *Cluster, spec PodSpec, owner ownerRef) *Pod {
	p := &Pod{
		cluster:    c,
		Spec:       spec,
		owner:      owner,
		phase:      PodPending,
		containers: make([]containerState, len(spec.Containers)),
		starting:   len(spec.Containers),
		live:       len(spec.Containers),
		killCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	for i, cs := range spec.Containers {
		p.containers[i].spec = cs
	}
	return p
}

// container returns the named container's state, or nil. A pod has one to
// four containers, so a scan is the lookup; the slice never changes after
// newPod, so it needs no lock.
func (p *Pod) container(name string) *containerState {
	for i := range p.containers {
		if p.containers[i].spec.Name == name {
			return &p.containers[i]
		}
	}
	return nil
}

// Name returns the pod's unique name.
func (p *Pod) Name() string { return p.Spec.Name }

// Phase returns the pod's current phase.
func (p *Pod) Phase() PodPhase {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// NodeName returns the node the pod is bound to ("" while pending).
func (p *Pod) NodeName() string { return p.nodeName() }

func (p *Pod) nodeName() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node == nil {
		return ""
	}
	return p.node.Spec.Name
}

// Restarts reports cumulative in-place container restarts.
func (p *Pod) Restarts() int { //lint:allow deadexport test-observation point: the restart and back-off tests count restarts
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// Done is closed when the pod reaches a terminal state or is deleted.
func (p *Pod) Done() <-chan struct{} { return p.doneCh } //lint:allow deadexport test-observation point: the pod tests wait on a pod's end

// setPhase transitions the pod and signals SubscribePods subscribers.
func (p *Pod) setPhase(ph PodPhase) {
	p.mu.Lock()
	if p.phase == ph || p.phase.Terminal() {
		p.mu.Unlock()
		return
	}
	p.phase = ph
	p.mu.Unlock()
	p.cluster.podsChanged()
}

// kill terminates the pod. Safe to call multiple times.
func (p *Pod) kill() {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return
	}
	p.killed = true
	close(p.killCh)
	// Kill all live container processes.
	for i := range p.containers {
		p.containers[i].killProcess()
	}
	p.mu.Unlock()
}

// crashContainer kills one container's process in place.
func (p *Pod) crashContainer(name string) error {
	cs := p.container(name)
	if cs == nil {
		return fmt.Errorf("pod %s: %w", p.Name(), errNoContainer(name))
	}
	cs.killProcess()
	return nil
}

func errNoContainer(name string) error {
	return fmt.Errorf("no such container %q: %w", name, errContainer)
}

// errContainer is the sentinel for unknown container names.
var errContainer = errors.New("kube: no such container")

// interruptibleSleep sleeps for d on the cluster clock, returning false
// if the pod is killed first.
func (p *Pod) interruptibleSleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := clock.AcquireTimer(p.cluster.clk, d)
	defer clock.ReleaseTimer(t)
	select {
	case <-t.C():
		return true
	case <-p.killCh:
		return false
	}
}

// run is the pod's kubelet lifecycle goroutine. It schedules the pod
// and creates its containers, then starts each container but the last
// on a supervisor goroutine of its own and supervises the last itself.
// The supervisor whose first start is the pod's last sets PodRunning;
// the last one to return finishes the pod.
func (p *Pod) run() {
	// 1. Scheduling: wait for a node with capacity.
	var node *Node
	for node == nil {
		select {
		case <-p.killCh:
			p.finish()
			return
		default:
		}
		if node = p.cluster.schedule(p.Spec); node == nil {
			p.interruptibleSleep(200 * time.Millisecond) // a kill is seen above
		}
	}
	p.mu.Lock()
	p.node = node
	p.mu.Unlock()

	// 2. Container creation, then 3. supervision.
	if !p.create() || len(p.containers) == 0 {
		p.finish()
		return
	}
	last := len(p.containers) - 1
	for i := range p.containers[:last] {
		go p.supervise(&p.containers[i])
	}
	p.supervise(&p.containers[last])
}

// create waits out the scheduler's decision and the container runtime's
// setup plus volume binding. It returns false if the pod is killed first.
func (p *Pod) create() bool {
	if !p.interruptibleSleep(p.cluster.jitter(p.cluster.timing.Schedule)) {
		return false
	}
	p.setPhase(PodCreating)
	setup := p.cluster.timing.ContainerCreate
	setup += time.Duration(len(p.Spec.Volumes)) * p.cluster.timing.VolumeBind
	if p.Spec.BindsObjectStore {
		setup += p.cluster.timing.ObjectStoreBind
	}
	return p.interruptibleSleep(p.cluster.jitter(setup))
}

// supervise runs one container's restart loop.
func (p *Pod) supervise(cs *containerState) {
	defer p.supervisorReturned()
	for incarnation := 0; ; incarnation++ {
		if incarnation > 0 {
			// Count the restart when the container actually comes
			// back, as Kubernetes does.
			p.mu.Lock()
			p.restarts++
			p.mu.Unlock()
		}
		// Boot delay (image/runtime dependent).
		pullStart := p.cluster.clk.Now()
		if !p.interruptibleSleep(p.cluster.jitter(cs.spec.StartDelay)) {
			return
		}
		// A job-labeled pod's boot delay is traced as an image-pull span
		// in the job's trace; re-pulls after a crash are recovery cost.
		if jobID := p.Spec.Labels["job"]; jobID != "" && p.cluster.trace != nil {
			sp := p.cluster.trace.StartSpanAt(trace.JobRoot(jobID),
				"image-pull:"+p.Spec.Name+"/"+cs.spec.Name, pullStart)
			if incarnation > 0 {
				sp.SetPhase(trace.PhaseRecovery)
			} else {
				sp.SetPhase(trace.PhaseImagePull)
			}
			sp.EndAt(p.cluster.clk.Now())
		}
		procKill := make(chan struct{})
		cs.mu.Lock()
		cs.procKill = procKill
		cs.running = true
		cs.mu.Unlock()
		if incarnation == 0 {
			// The pod's last first start makes it Running, unless it
			// was killed meanwhile.
			p.mu.Lock()
			p.starting--
			if p.starting == 0 && !p.killed && !p.phase.Terminal() {
				p.phase = PodRunning
			}
			p.mu.Unlock()
		}
		p.cluster.podsChanged()

		code := p.runProcess(cs, procKill, incarnation)

		cs.mu.Lock()
		cs.running = false
		cs.exits++
		cs.lastExit = code
		cs.mu.Unlock()

		select {
		case <-p.killCh:
			return
		default:
		}

		switch p.Spec.RestartPolicy {
		case RestartNever:
			return
		case RestartOnFailure:
			if code == 0 {
				return
			}
		case RestartAlways:
			// Always restart.
		}

		// First restart is immediate; repeated crashes back off
		// (CrashLoopBackOff).
		if incarnation > 0 {
			backoff := p.cluster.timing.CrashBackoffBase * time.Duration(1<<uint(min(incarnation-1, 5)))
			if !p.interruptibleSleep(backoff) {
				return
			}
		}
	}
}

// supervisorReturned finishes the pod once its last supervisor returns.
func (p *Pod) supervisorReturned() {
	p.mu.Lock()
	p.live--
	last := p.live == 0
	p.mu.Unlock()
	if last {
		p.finish()
	}
}

// runProcess executes the container's process body until it exits, is
// killed, or fails its liveness probe, returning its exit code.
func (p *Pod) runProcess(cs *containerState, procKill chan struct{}, incarnation int) int {
	ctx := &ContainerCtx{
		pod:      p,
		killedCh: procKill,
		restart:  incarnation,
	}
	probeStop := p.startLivenessProbe(cs, procKill)
	if probeStop != nil {
		defer probeStop()
	}
	if cs.spec.Run == nil {
		// Server process: blocks until killed.
		<-procKill
		return exitKilled
	}
	done := make(chan int, 1)
	go func() { done <- cs.spec.Run(ctx) }()
	select {
	case code := <-done:
		return code
	case <-procKill:
		// Give the process a chance to observe the kill and return;
		// regardless, the container reports SIGKILL. A scheduler yield
		// plus a non-blocking poll stands in for the old time.After(0),
		// which smuggled a real-clock timer into the simulation.
		runtime.Gosched()
		select {
		case <-done:
		default:
		}
		return exitKilled
	}
}

// startLivenessProbe polls the container's liveness function and kills
// the process on failure. It returns a stop function, or nil when the
// container has no probe.
func (p *Pod) startLivenessProbe(cs *containerState, procKill chan struct{}) func() {
	if cs.spec.Liveness == nil {
		return nil
	}
	interval := cs.spec.LivenessInterval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	stop := make(chan struct{})
	go func() {
		t := p.cluster.clk.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-procKill:
				return
			case <-t.C():
				if !cs.spec.Liveness() {
					cs.killProcess()
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }) }
}

// killProcess terminates the container's current process, if running.
func (cs *containerState) killProcess() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.running && cs.procKill != nil {
		select {
		case <-cs.procKill:
		default:
			close(cs.procKill)
		}
	}
}

// ExitInfo reports a container's exit statistics.
func (p *Pod) ExitInfo(container string) (exits, lastCode int, running bool) { //lint:allow deadexport test-observation point: the container tests read exit codes and liveness
	cs := p.container(container)
	if cs == nil {
		return 0, 0, false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.exits, cs.lastExit, cs.running
}

// finish computes the terminal phase, releases resources and notifies
// the owner controller.
func (p *Pod) finish() {
	p.mu.Lock()
	node := p.node
	killed := p.killed
	// Determine terminal phase.
	var phase PodPhase
	switch {
	case killed:
		phase = PodFailed
	default:
		phase = PodSucceeded
		for i := range p.containers {
			cs := &p.containers[i]
			cs.mu.Lock()
			if cs.lastExit != 0 {
				phase = PodFailed
			}
			cs.mu.Unlock()
		}
	}
	alreadyTerminal := p.phase.Terminal()
	if !alreadyTerminal {
		p.phase = phase
	}
	p.mu.Unlock()

	p.cluster.release(node, p.Spec)
	p.cluster.forget(p)
	if !alreadyTerminal {
		p.cluster.podsChanged()
	}
	close(p.doneCh)
	if p.owner != nil {
		p.owner.podTerminated(p, phase)
	}
}

// ContainerCtx is handed to container processes.
type ContainerCtx struct {
	pod      *Pod
	killedCh chan struct{}
	restart  int
}

// Killed is closed when the process must terminate.
func (c *ContainerCtx) Killed() <-chan struct{} { return c.killedCh }

// PodName returns the owning pod's name.
func (c *ContainerCtx) PodName() string { return c.pod.Name() }

// Restart returns the incarnation number (0 = first run).
func (c *ContainerCtx) Restart() int { return c.restart }

// NodeName returns the node the pod runs on.
func (c *ContainerCtx) NodeName() string { return c.pod.nodeName() }

// Clock returns the hosting node's local clock — the cluster clock,
// plus any skew injected with SetNodeSkew. Container processes must
// stamp the artifacts they produce (logs, status, metrics) with this
// clock, not the cluster clock: that is what makes clock-skew faults
// observable end to end. Pending pods read the cluster clock.
func (c *ContainerCtx) Clock() clock.Clock {
	return c.pod.cluster.NodeClock(c.pod.nodeName())
}

// Sleep pauses for d of cluster time; it returns false if the process
// was killed while sleeping.
func (c *ContainerCtx) Sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := clock.AcquireTimer(c.pod.cluster.clk, d)
	defer clock.ReleaseTimer(t)
	select {
	case <-t.C():
		return true
	case <-c.killedCh:
		return false
	}
}

// SleepUntil is the wait of a poll loop whose pass reads only what
// signals wake when it changes: clock.SleepUntil on the cluster clock,
// given up (false) when the process is killed. A pass that left work to
// retry takes Sleep(period) instead.
func (c *ContainerCtx) SleepUntil(period time.Duration, wake <-chan struct{}) bool {
	return clock.SleepUntil(c.pod.cluster.clk, period, wake, c.killedCh)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
