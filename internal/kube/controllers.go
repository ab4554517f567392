package kube

import (
	"fmt"
	"sync"
)

// controllerManager tracks controller liveness so cluster shutdown can
// stop reconciliation before killing pods.
type controllerManager struct {
	mu      sync.Mutex
	stopped bool
}

func newControllerManager(*Cluster) *controllerManager {
	return &controllerManager{}
}

func (m *controllerManager) stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
}

func (m *controllerManager) running() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.stopped
}

// ---------------------------------------------------------------------
// Deployment: keep N interchangeable replicas alive (DLaaS microservices
// like the API and LCM run as Deployments).

// Deployment reconciles a replica count of a pod template.
type Deployment struct {
	cluster  *Cluster
	name     string
	template PodSpec

	mu       sync.Mutex
	replicas int
	pods     map[string]*Pod
	stopped  bool
}

var _ ownerRef = (*Deployment)(nil)

// CreateDeployment starts a deployment with the given replica count.
func (c *Cluster) CreateDeployment(name string, replicas int, template PodSpec) (*Deployment, error) {
	d := &Deployment{
		cluster:  c,
		name:     name,
		template: template,
		replicas: replicas,
		pods:     make(map[string]*Pod),
	}
	for i := 0; i < replicas; i++ {
		if err := d.createReplica(drawKey(c.seed, name, i)); err != nil {
			return nil, fmt.Errorf("deployment %s: %w", name, err)
		}
	}
	c.reg.mu.Lock()
	c.reg.deployments[name] = d
	c.reg.mu.Unlock()
	return d, nil
}

// Delete stops reconciliation and kills the replicas.
func (d *Deployment) Delete() {
	d.mu.Lock()
	d.stopped = true
	pods := make([]*Pod, 0, len(d.pods))
	for _, p := range d.pods {
		pods = append(pods, p)
	}
	sortPodsByName(pods)
	d.pods = map[string]*Pod{}
	d.mu.Unlock()
	for _, p := range pods {
		p.kill()
	}
}

func (d *Deployment) createReplica(key uint64) error {
	spec := d.template.clone()
	spec.Name = d.cluster.nextName(d.name)
	p, err := d.cluster.createPodOwned(spec, d, key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		p.kill()
		return nil
	}
	d.pods[spec.Name] = p
	d.mu.Unlock()
	return nil
}

// podTerminated implements ownerRef: replace lost replicas.
func (d *Deployment) podTerminated(p *Pod, _ PodPhase) {
	d.mu.Lock()
	owned := d.pods[p.Name()] == p
	if owned {
		delete(d.pods, p.Name())
	}
	need := owned && !d.stopped && len(d.pods) < d.replicas
	d.mu.Unlock()
	if !need || !d.cluster.ctrl.running() {
		return
	}
	go func() {
		d.cluster.clk.Sleep(d.cluster.jitter(d.cluster.timing.ControllerReact, p.key+drawReact))
		d.mu.Lock()
		stillNeed := !d.stopped && len(d.pods) < d.replicas
		d.mu.Unlock()
		if stillNeed {
			_ = d.createReplica(splitmix64(p.key)) // cluster shutdown is the only failure
		}
	}()
}

// ---------------------------------------------------------------------
// StatefulSet: replicas with stable identities name-0..name-N-1 (DLaaS
// learners, so a restarted learner keeps its ordinal and can rejoin
// distributed training).

// StatefulSet reconciles ordinal-named replicas.
type StatefulSet struct {
	cluster  *Cluster
	name     string
	template PodSpec

	mu       sync.Mutex
	replicas int
	pods     map[int]*Pod
	stopped  bool
}

var _ ownerRef = (*StatefulSet)(nil)

// CreateStatefulSet starts a stateful set with stable pod names
// "<name>-<ordinal>".
func (c *Cluster) CreateStatefulSet(name string, replicas int, template PodSpec) (*StatefulSet, error) {
	s := &StatefulSet{
		cluster:  c,
		name:     name,
		template: template,
		replicas: replicas,
		pods:     make(map[int]*Pod),
	}
	for i := 0; i < replicas; i++ {
		if err := s.createOrdinal(i, drawKey(c.seed, name, i)); err != nil {
			return nil, fmt.Errorf("statefulset %s: %w", name, err)
		}
	}
	c.reg.mu.Lock()
	c.reg.statefulSets[name] = s
	c.reg.mu.Unlock()
	return s, nil
}

// PodName returns the stable name of ordinal i.
func (s *StatefulSet) PodName(i int) string { return fmt.Sprintf("%s-%d", s.name, i) }

// Delete stops reconciliation and kills the replicas.
func (s *StatefulSet) Delete() {
	s.mu.Lock()
	s.stopped = true
	pods := make([]*Pod, 0, len(s.pods))
	for _, p := range s.pods {
		pods = append(pods, p)
	}
	sortPodsByName(pods)
	s.pods = map[int]*Pod{}
	s.mu.Unlock()
	for _, p := range pods {
		p.kill()
	}
}

func (s *StatefulSet) createOrdinal(i int, key uint64) error {
	spec := s.template.clone()
	spec.Name = s.PodName(i)
	if spec.Labels == nil {
		spec.Labels = map[string]string{}
	}
	spec.Labels["ordinal"] = fmt.Sprintf("%d", i)
	p, err := s.cluster.createPodOwned(spec, s, key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		p.kill()
		return nil
	}
	s.pods[i] = p
	s.mu.Unlock()
	return nil
}

// podTerminated implements ownerRef: recreate the same ordinal.
func (s *StatefulSet) podTerminated(p *Pod, _ PodPhase) {
	s.mu.Lock()
	ordinal := -1
	for i, cur := range s.pods {
		if cur == p {
			ordinal = i
			delete(s.pods, i)
			break
		}
	}
	need := ordinal >= 0 && !s.stopped && ordinal < s.replicas
	s.mu.Unlock()
	if !need || !s.cluster.ctrl.running() {
		return
	}
	go func() {
		s.cluster.clk.Sleep(s.cluster.jitter(s.cluster.timing.ControllerReact, p.key+drawReact))
		s.mu.Lock()
		stillNeed := !s.stopped
		s.mu.Unlock()
		if stillNeed {
			_ = s.createOrdinal(ordinal, splitmix64(p.key))
		}
	}()
}

// ---------------------------------------------------------------------
// Job: run a task to completion, restarting on failure up to a backoff
// limit. The DLaaS Guardian runs as a Job — "tasks that K8S guarantees
// to reliably run to completion".

// Job reconciles a run-to-completion pod.
type Job struct {
	cluster      *Cluster
	name         string
	template     PodSpec
	backoffLimit int

	mu        sync.Mutex
	attempts  int
	active    *Pod
	succeeded bool
	failed    bool
	stopped   bool
	done      chan struct{}
}

var _ ownerRef = (*Job)(nil)

// CreateJob starts a job. The pod is retried on failure up to
// backoffLimit additional attempts; exhausting them marks the job failed.
func (c *Cluster) CreateJob(name string, backoffLimit int, template PodSpec) (*Job, error) {
	j := &Job{
		cluster:      c,
		name:         name,
		template:     template,
		backoffLimit: backoffLimit,
		done:         make(chan struct{}),
	}
	if err := j.createAttempt(drawKey(c.seed, name, 0)); err != nil {
		return nil, fmt.Errorf("job %s: %w", name, err)
	}
	c.reg.mu.Lock()
	c.reg.jobs[name] = j
	c.reg.mu.Unlock()
	return j, nil
}

// Name returns the job's name.
func (j *Job) Name() string { return j.name }

// Done is closed when the job succeeds or permanently fails.
func (j *Job) Done() <-chan struct{} { return j.done } //lint:allow deadexport test-observation point: the controller tests wait on a job's outcome

// Status reports the job outcome and attempt count.
func (j *Job) Status() (succeeded, failed bool, attempts int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.succeeded, j.failed, j.attempts
}

// Delete stops the job and kills its active pod.
func (j *Job) Delete() {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	p := j.active
	j.active = nil
	finished := j.succeeded || j.failed
	if !finished {
		close(j.done)
	}
	j.mu.Unlock()
	if p != nil {
		p.kill()
	}
}

func (j *Job) createAttempt(key uint64) error {
	j.mu.Lock()
	attempt := j.attempts
	j.attempts++
	j.mu.Unlock()

	spec := j.template.clone()
	spec.Name = fmt.Sprintf("%s-a%d", j.name, attempt)
	if spec.RestartPolicy == 0 {
		spec.RestartPolicy = RestartNever
	}
	p, err := j.cluster.createPodOwned(spec, j, key)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		p.kill()
		return nil
	}
	j.active = p
	j.mu.Unlock()
	return nil
}

// podTerminated implements ownerRef: retry failures, finish on success.
func (j *Job) podTerminated(p *Pod, phase PodPhase) {
	j.mu.Lock()
	if j.active != p || j.stopped {
		j.mu.Unlock()
		return
	}
	j.active = nil
	if phase == PodSucceeded {
		j.succeeded = true
		close(j.done)
		j.mu.Unlock()
		return
	}
	if j.attempts > j.backoffLimit {
		j.failed = true
		close(j.done)
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if !j.cluster.ctrl.running() {
		return
	}
	go func() {
		j.cluster.clk.Sleep(j.cluster.jitter(j.cluster.timing.ControllerReact, p.key+drawReact))
		j.mu.Lock()
		stopped := j.stopped
		j.mu.Unlock()
		if !stopped {
			_ = j.createAttempt(splitmix64(p.key))
		}
	}()
}

// ---------------------------------------------------------------------
// NetworkPolicy: label-selected ingress restrictions (DLaaS isolates
// learner pods from platform services and from other tenants).

// NetworkPolicy restricts which pods may connect to the selected pods.
type NetworkPolicy struct {
	// Name identifies the policy.
	Name string
	// AppliesTo selects the protected pods by label.
	AppliesTo map[string]string
	// AllowFrom lists label selectors of permitted clients. A
	// connection is allowed if any selector matches the client.
	AllowFrom []map[string]string
}

// ApplyNetworkPolicy installs or replaces a policy.
func (c *Cluster) ApplyNetworkPolicy(p NetworkPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := p
	c.policies[p.Name] = &cp
}

// RemoveNetworkPolicy uninstalls a policy.
func (c *Cluster) RemoveNetworkPolicy(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.policies, name)
}

// CanConnect evaluates whether pod from may open a connection to pod to
// under the installed policies: if no policy selects the target, the
// connection is allowed (Kubernetes default-allow); otherwise at least
// one selecting policy must allow the client.
func (c *Cluster) CanConnect(fromPod, toPod string) bool { //lint:allow deadexport the paper's tenant isolation, which only tests evaluate
	c.mu.Lock()
	from := c.pods[fromPod]
	to := c.pods[toPod]
	policies := make([]*NetworkPolicy, 0, len(c.policies))
	for _, p := range c.policies {
		policies = append(policies, p)
	}
	sortPolicies(policies)
	c.mu.Unlock()
	if from == nil || to == nil {
		return false
	}
	selected := false
	for _, p := range policies {
		if !labelsMatch(to.Spec.Labels, p.AppliesTo) {
			continue
		}
		selected = true
		for _, allow := range p.AllowFrom {
			if labelsMatch(from.Spec.Labels, allow) {
				return true
			}
		}
	}
	return !selected
}

// sortPolicies orders policies by name so connection checks evaluate
// them in one stable order regardless of map iteration.
func sortPolicies(ps []*NetworkPolicy) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Name < ps[j-1].Name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
