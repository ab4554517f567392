package kube

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/nfs"
	"repro/internal/trace"
)

// Common errors.
var (
	// ErrPodExists indicates a pod name collision.
	ErrPodExists = errors.New("kube: pod already exists")
	// ErrNoPod indicates the pod does not exist.
	ErrNoPod = errors.New("kube: no such pod")
	// ErrNoNode indicates the node does not exist.
	ErrNoNode = errors.New("kube: no such node")
	// ErrStopped indicates the cluster has been shut down.
	ErrStopped = errors.New("kube: cluster stopped")
)

// Timing models the latency of control-plane and node operations. The
// defaults are calibrated so that component recovery times land in the
// paper's Fig. 4 ranges.
type Timing struct {
	// Schedule is the scheduler's decision latency per pod.
	Schedule time.Duration
	// ContainerCreate is the container runtime setup cost (cached
	// image, cgroups, virtual network).
	ContainerCreate time.Duration
	// VolumeBind is the PVC/NFS mount cost per volume.
	VolumeBind time.Duration
	// ObjectStoreBind is the cloud object-store credential/mount cost
	// for pods that stream training data.
	ObjectStoreBind time.Duration
	// ControllerReact is the watch-to-action latency of controllers.
	ControllerReact time.Duration
	// CrashBackoffBase is the in-place restart backoff after repeated
	// container crashes (the first restart is immediate, as in
	// Kubernetes before CrashLoopBackOff engages).
	CrashBackoffBase time.Duration
	// JitterFraction randomizes each delay by ±fraction.
	JitterFraction float64
}

// DefaultTiming returns the calibrated simulation constants.
func DefaultTiming() Timing {
	return Timing{
		Schedule:         100 * time.Millisecond,
		ContainerCreate:  400 * time.Millisecond,
		VolumeBind:       700 * time.Millisecond,
		ObjectStoreBind:  3 * time.Second,
		ControllerReact:  200 * time.Millisecond,
		CrashBackoffBase: 10 * time.Second,
		JitterFraction:   0.15,
	}
}

// Config configures a simulated cluster. Placement is bin-pack (nodes
// filled in name order), with priority preemption and backfill always on.
type Config struct {
	// Clock drives every delay. Required.
	Clock clock.Clock
	// NFS optionally provides the shared-volume server used by PVCs.
	NFS *nfs.Server
	// Timing overrides DefaultTiming when non-zero.
	Timing Timing
	// EvictionGracePeriod is the deadline of every eviction intent that
	// preemption and node drain post: the gang's pods keep running while
	// the owner checkpoints and calls AckEviction, and the deadline
	// force-evicts a gang that never acks. Zero makes the deadline now:
	// the eviction completes at the current instant, through the same
	// intent.
	EvictionGracePeriod time.Duration
	// Seed makes delay jitter reproducible: each pod's draws follow the
	// seed and the pod's owner, never the order in which pods ask.
	Seed int64
	// Trace optionally records gang-admission and container-boot spans
	// (queue wait, image pull) into job traces. Nil disables.
	Trace *trace.Recorder
}

// Cluster is the simulated Kubernetes control plane plus its nodes.
type Cluster struct {
	clk    clock.Clock
	nfs    *nfs.Server
	timing Timing
	trace  *trace.Recorder
	seed   uint64 // what drawKey hashes a pod's owner into

	mu         sync.Mutex
	nodes      map[string]*Node
	nodeOrder  []*Node // nodes sorted by name; fixed at NewCluster
	pods       map[string]*Pod
	policies   map[string]*NetworkPolicy
	nodeClocks map[string]*clock.Skewed
	podSubs    []chan struct{} // SubscribePods signals
	nameSeq    uint64
	stopped    bool

	ctrl  *controllerManager
	reg   *registry
	sched *gangScheduler
}

// Node is a worker machine with GPU capacity.
type Node struct {
	Spec NodeSpec

	mu       sync.Mutex
	freeGPUs int
	down     bool
	cordoned bool
}

// Cordoned reports whether the node is excluded from scheduling.
func (n *Node) Cordoned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cordoned
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// FreeGPUs reports currently unallocated GPUs.
func (n *Node) FreeGPUs() int { //lint:allow deadexport test-observation point: the per-node ledger the scheduler tests check
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.freeGPUs
}

// NewCluster creates a cluster with the given worker nodes.
func NewCluster(cfg Config, nodes ...NodeSpec) *Cluster {
	if cfg.Clock == nil {
		panic("kube: Config.Clock is required")
	}
	t := cfg.Timing
	if t == (Timing{}) {
		t = DefaultTiming()
	}
	c := &Cluster{
		clk:        cfg.Clock,
		nfs:        cfg.NFS,
		timing:     t,
		trace:      cfg.Trace,
		seed:       splitmix64(uint64(cfg.Seed)),
		nodes:      make(map[string]*Node),
		pods:       make(map[string]*Pod),
		policies:   make(map[string]*NetworkPolicy),
		nodeClocks: make(map[string]*clock.Skewed),
	}
	for _, ns := range nodes {
		c.nodes[ns.Name] = &Node{Spec: ns, freeGPUs: ns.GPUs}
	}
	order := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Spec.Name < order[j].Spec.Name })
	c.nodeOrder = order
	c.ctrl = newControllerManager(c)
	c.reg = newRegistry()
	c.sched = newGangScheduler(c, cfg)
	return c
}

// Clock returns the cluster's time source.
func (c *Cluster) Clock() clock.Clock { return c.clk }

// NFS returns the shared-volume server, if configured.
func (c *Cluster) NFS() *nfs.Server { return c.nfs }

// Stop terminates all pods and controllers.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	pods := make([]*Pod, 0, len(c.pods))
	for _, p := range c.pods {
		pods = append(pods, p)
	}
	sortPodsByName(pods)
	c.mu.Unlock()

	c.ctrl.stop()
	for _, p := range pods {
		p.kill()
	}
}

// SubscribePods returns a "look again" signal for pod state: wake holds
// a token once any pod has been added, changed phase, gone, or had a
// container process (re)start since the token was last taken. It has
// capacity one and the cluster never blocks on it. It says only that
// something changed, for a loop that re-reads pod state on a cadence (see
// clock.SleepUntil). Subscribe before the first look.
func (c *Cluster) SubscribePods() (wake <-chan struct{}, cancel func()) {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	c.podSubs = append(c.podSubs, ch)
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, x := range c.podSubs {
			if x == ch {
				c.podSubs = append(c.podSubs[:i], c.podSubs[i+1:]...)
				return
			}
		}
	}
}

// podsChangedLocked signals every SubscribePods subscriber. c.mu is held.
func (c *Cluster) podsChangedLocked() {
	for _, ch := range c.podSubs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// podsChanged signals every SubscribePods subscriber.
func (c *Cluster) podsChanged() {
	c.mu.Lock()
	c.podsChangedLocked()
	c.mu.Unlock()
}

// jitter scales d by a factor in 1±JitterFraction drawn from key alone, so
// a draw follows the seed and the pod's owner, not the order of asking.
func (c *Cluster) jitter(d time.Duration, key uint64) time.Duration {
	if c.timing.JitterFraction <= 0 || d <= 0 {
		return d
	}
	u := float64(splitmix64(key)>>11) / (1 << 53) // uniform in [0, 1)
	return time.Duration(float64(d) * (1 + (u*2-1)*c.timing.JitterFraction))
}

// drawKey folds name (FNV-1a, without allocating) and then n into key h.
func drawKey(h uint64, name string, n int) uint64 {
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return splitmix64(h + uint64(n))
}

// splitmix64 is one step of the SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// nextName generates a unique suffixed pod name.
func (c *Cluster) nextName(base string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nameSeq++
	return fmt.Sprintf("%s-%05d", base, c.nameSeq)
}

// CreatePod instantiates spec directly (no controller). The returned pod
// is scheduled and started asynchronously.
func (c *Cluster) CreatePod(spec PodSpec) (*Pod, error) {
	return c.createPodOwned(spec.clone(), nil, drawKey(c.seed, spec.Name, 0))
}

// createPodOwned creates a pod of spec, which it takes ownership of: a
// controller hands it the clone of its template it stamped the pod's
// name into. key is the pod's draw key: drawKey(seed, name, i) of a bare
// pod (i = 0) or an owner's i-th initial pod, else splitmix64 of the key of
// the pod it replaces.
func (c *Cluster) createPodOwned(spec PodSpec, owner ownerRef, key uint64) (*Pod, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrStopped
	}
	if _, exists := c.pods[spec.Name]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("creating pod %q: %w", spec.Name, ErrPodExists)
	}
	p := newPod(c, spec, owner, key)
	c.pods[spec.Name] = p
	c.mu.Unlock()

	c.podsChanged()
	go p.run()
	return p, nil
}

// Pod returns the named pod, or nil.
func (c *Cluster) Pod(name string) *Pod { //lint:allow deadexport test-observation point: the restart tests look a pod up by name
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pods[name]
}

// Pods returns all pods matching the label selector (nil matches all),
// sorted by name.
func (c *Cluster) Pods(selector map[string]string) []*Pod {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Pod
	for _, p := range c.pods {
		if labelsMatch(p.Spec.Labels, selector) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// DeletePod removes the pod (kubectl delete pod). Controllers owning the
// pod will create a replacement.
func (c *Cluster) DeletePod(name string) error {
	c.mu.Lock()
	p := c.pods[name]
	c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("deleting pod %q: %w", name, ErrNoPod)
	}
	p.kill()
	return nil
}

// DeletePodAndSnapshot kills the named pod and returns every pod
// matching selector as of the same instant, all under one acquisition
// of the registry lock — a single quiescent cut. Recovery measurements
// need this atomicity: a replacement scheduled concurrently can neither
// slip into the "before" set (hiding the recovery) nor be mistaken for
// one (a pod created before the kill counting as the post-fault
// replacement). The returned snapshot includes the victim.
func (c *Cluster) DeletePodAndSnapshot(name string, selector map[string]string) ([]*Pod, error) {
	c.mu.Lock()
	victim := c.pods[name]
	if victim == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("deleting pod %q: %w", name, ErrNoPod)
	}
	var snapshot []*Pod
	for _, p := range c.pods {
		if labelsMatch(p.Spec.Labels, selector) {
			snapshot = append(snapshot, p)
		}
	}
	sort.Slice(snapshot, func(i, j int) bool { return snapshot[i].Name() < snapshot[j].Name() })
	victim.kill()
	c.mu.Unlock()
	return snapshot, nil
}

// SetNodeSkew offsets the node's local clock from the cluster clock
// (positive = the node's clock runs ahead). Software running in the
// node's pods reads time through ContainerCtx.Clock, so its timestamps
// drift while its sleep durations stay true — the clock-skew fault of
// the dependability campaign. A zero offset heals the node.
func (c *Cluster) SetNodeSkew(name string, offset time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("skewing node %q: %w", name, ErrNoNode)
	}
	if sk, ok := c.nodeClocks[name]; ok {
		sk.SetOffset(offset)
		return nil
	}
	c.nodeClocks[name] = clock.NewSkewed(c.clk, offset)
	return nil
}

// NodeClock returns the named node's local clock: the cluster clock,
// skewed by any offset injected with SetNodeSkew. Unknown or unskewed
// nodes read the cluster clock directly.
func (c *Cluster) NodeClock(name string) clock.Clock {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sk, ok := c.nodeClocks[name]; ok {
		return sk
	}
	return c.clk
}

// CrashContainer kills the named container's process in place (exit 137).
// The kubelet restarts it according to the pod's restart policy.
func (c *Cluster) CrashContainer(podName, containerName string) error { //lint:allow deadexport test fault switch: the kubelet's in-place restart path (and the helper controller's recovery over it) is tested through it
	c.mu.Lock()
	p := c.pods[podName]
	c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("crashing container %s/%s: %w", podName, containerName, ErrNoPod)
	}
	return p.crashContainer(containerName)
}

// CrashNode fails the node: all its pods terminate as Failed and its
// capacity is withdrawn until RestartNode.
func (c *Cluster) CrashNode(name string) error {
	c.mu.Lock()
	n := c.nodes[name]
	if n == nil {
		c.mu.Unlock()
		return fmt.Errorf("crashing node %q: %w", name, ErrNoNode)
	}
	var victims []*Pod
	for _, p := range c.pods {
		if p.nodeName() == name {
			victims = append(victims, p)
		}
	}
	sortPodsByName(victims)
	c.mu.Unlock()

	n.mu.Lock()
	n.down = true
	n.mu.Unlock()
	c.sched.nodeDown(n)
	for _, p := range victims {
		p.kill()
	}
	return nil
}

// RestartNode brings a crashed node back with full capacity.
func (c *Cluster) RestartNode(name string) error {
	c.mu.Lock()
	n := c.nodes[name]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("restarting node %q: %w", name, ErrNoNode)
	}
	n.mu.Lock()
	n.down = false
	n.freeGPUs = n.Spec.GPUs
	n.mu.Unlock()
	c.sched.kick()
	return nil
}

// FreeGPUs returns the cluster's aggregate unallocated GPU count for
// the given type ("" = any), across live schedulable nodes. Controllers
// use it for gang-capacity checks before creating multi-pod workloads.
func (c *Cluster) FreeGPUs(gpuType string) int {
	total := 0
	for _, n := range c.nodeOrder {
		n.mu.Lock()
		if !n.down && !n.cordoned && (gpuType == "" || n.Spec.GPUType == gpuType) {
			total += n.freeGPUs
		}
		n.mu.Unlock()
	}
	return total
}

// CordonNode marks the node unschedulable without disturbing its pods
// (kubectl cordon) — the maintenance primitive complementing crash
// recovery.
func (c *Cluster) CordonNode(name string) error {
	c.mu.Lock()
	n := c.nodes[name]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cordoning node %q: %w", name, ErrNoNode)
	}
	n.mu.Lock()
	n.cordoned = true
	n.mu.Unlock()
	return nil
}

// UncordonNode makes the node schedulable again.
func (c *Cluster) UncordonNode(name string) error {
	c.mu.Lock()
	n := c.nodes[name]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("uncordoning node %q: %w", name, ErrNoNode)
	}
	n.mu.Lock()
	n.cordoned = false
	n.mu.Unlock()
	c.sched.kick()
	return nil
}

// DrainNode cordons the node and evicts its pods (kubectl drain). Plain
// pods are deleted immediately and their controllers recreate them on
// other nodes. Gangs holding reservation on the node flow through the
// gang scheduler in reverse-priority order: each gets an eviction intent
// (the owner checkpoints before the pods die, until the grace deadline),
// so the holdings ledger stays consistent, and the scheduler repairs and
// reschedules the freed capacity.
func (c *Cluster) DrainNode(name string) error {
	if err := c.CordonNode(name); err != nil {
		return err
	}
	c.mu.Lock()
	n := c.nodes[name]
	c.mu.Unlock()
	c.sched.drainGangs(n)
	c.mu.Lock()
	var victims []*Pod
	for _, p := range c.pods {
		if p.nodeName() == name && p.Spec.Gang == "" {
			victims = append(victims, p)
		}
	}
	sortPodsByName(victims)
	c.mu.Unlock()
	for _, p := range victims {
		p.kill()
	}
	c.sched.kick()
	return nil
}

// Nodes returns the cluster's nodes sorted by name.
func (c *Cluster) Nodes() []*Node { return slices.Clone(c.nodeOrder) }

// sortPodsByName orders a pod list by name. Pod sets are collected out
// of maps all over the cluster and controllers; every consumer that
// acts on the set (kill, evict, deploy) must see one stable order or
// replayed schedules diverge on map iteration order.
func sortPodsByName(pods []*Pod) {
	sort.Slice(pods, func(i, j int) bool { return pods[i].Name() < pods[j].Name() })
}

// schedule reserves capacity for spec on a node. Gang member pods bind
// to their gang's reservation; everything else goes through the per-pod
// policy placement. Returns nil when nothing fits (yet).
func (c *Cluster) schedule(spec PodSpec) *Node {
	return c.sched.placePod(spec)
}

// release returns a pod's GPU reservation to its gang or node and lets
// the gang scheduler react to the freed capacity.
func (c *Cluster) release(n *Node, spec PodSpec) {
	c.sched.podReleased(n, spec)
}

// forget removes a terminal pod from the registry (kubelet GC).
func (c *Cluster) forget(p *Pod) {
	c.mu.Lock()
	if cur, ok := c.pods[p.Name()]; ok && cur == p {
		delete(c.pods, p.Name())
	}
	c.mu.Unlock()
}

func labelsMatch(labels, selector map[string]string) bool {
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}
