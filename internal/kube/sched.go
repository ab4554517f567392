package kube

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// Gang scheduling errors.
var (
	// ErrBadGang indicates an invalid gang specification.
	ErrBadGang = errors.New("kube: invalid gang spec")
	// ErrGangUnsatisfiable indicates the gang demands more GPUs than the
	// cluster could provide even with every node healthy and empty —
	// queueing it would wait forever. Callers should fail fast with a
	// diagnosable reason instead.
	ErrGangUnsatisfiable = errors.New("kube: gang demand exceeds cluster capacity")
)

// GangState is the lifecycle state of a pod group.
type GangState int

// Gang lifecycle states.
const (
	// GangPending: queued, waiting for capacity.
	GangPending GangState = iota + 1
	// GangAdmitted: every member has a GPU reservation; pods may bind.
	GangAdmitted
	// GangPreempted: evicted by a higher-priority gang; the owner must
	// cancel and resubmit.
	GangPreempted
	// GangReleased: cancelled (or completed) and its reservation returned.
	GangReleased
	// GangEvicting: an eviction intent has been posted. The gang keeps
	// its reservation and its pods keep running while the owner
	// checkpoints; AckEviction (or the grace deadline) completes the
	// eviction and the gang becomes GangPreempted.
	GangEvicting
)

// String implements fmt.Stringer.
func (s GangState) String() string {
	switch s {
	case GangPending:
		return "Pending"
	case GangAdmitted:
		return "Admitted"
	case GangPreempted:
		return "Preempted"
	case GangReleased:
		return "Released"
	case GangEvicting:
		return "Evicting"
	default:
		return fmt.Sprintf("gang(%d)", int(s))
	}
}

// Eviction intent reasons.
const (
	// EvictReasonPreemption marks an eviction in favor of a
	// higher-priority gang.
	EvictReasonPreemption = "preemption"
	// EvictReasonDrain marks an eviction caused by a node drain.
	EvictReasonDrain = "drain"
)

// EvictionIntent is one posted graceful-eviction handshake: the
// scheduler wants the gang's capacity and gives the owner until
// Deadline to checkpoint and ack before the member pods are killed.
type EvictionIntent struct {
	// Reason is EvictReasonPreemption or EvictReasonDrain.
	Reason string
	// PostedAt is when the scheduler posted the intent.
	PostedAt time.Time
	// Deadline is when a non-acking gang is force-evicted, so a wedged
	// owner cannot block a higher-priority gang indefinitely.
	Deadline time.Time
}

// GangSpec describes a pod group that must be placed atomically: all
// members get capacity, or none do (the paper's "either the whole job is
// provisioned with the requisite resources or none").
type GangSpec struct {
	// Name identifies the gang; member pods reference it via PodSpec.Gang.
	Name string
	// Tenant is the owning tenant (preemption is tenant-aware).
	Tenant string
	// Priority orders admission; a waiting gang preempts admitted gangs
	// of strictly lower priority.
	Priority int
	// Members is the number of pods in the gang.
	Members int
	// GPUsPerMember is each member pod's GPU demand.
	GPUsPerMember int
	// GPUType optionally constrains the nodes' GPU type.
	GPUType string
	// Trace optionally parents the scheduler's gang-admission span
	// (queue wait, backfill/preemption decisions) into the owner's
	// trace. Zero disables.
	Trace trace.SpanContext
}

// TotalGPUs is the gang's aggregate demand.
func (s GangSpec) TotalGPUs() int { return s.Members * s.GPUsPerMember }

// Gang is a live pod group tracked by the scheduler.
type Gang struct {
	// Spec is the submitted specification (read-only after submit).
	Spec GangSpec
	seq  uint64 // FIFO tiebreak within a priority level

	mu          sync.Mutex
	state       GangState
	reserved    map[*Node]int // GPUs reserved per node (bound + idle)
	idle        map[*Node]int // reserved GPUs not yet bound to a pod
	lost        int           // members whose reservation died with a node
	backfilled  bool          // admitted past a waiting head (counts against the backfill budget)
	submittedAt time.Time
	admittedAt  time.Time
	evictedCh   chan struct{}
	evicted     bool
	intent      *EvictionIntent
	noticeCh    chan struct{} // closed when an eviction intent is posted
	graceTimer  clock.Timer   // deadline backstop; stopped on early completion
	span        *trace.Span   // queue-wait span (nil when tracing is off)
}

// State returns the gang's current lifecycle state.
func (g *Gang) State() GangState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Evicted is closed when the gang is preempted or released.
func (g *Gang) Evicted() <-chan struct{} { return g.evictedCh }

// EvictionNotice is closed when the scheduler posts an eviction intent
// for the gang — the owner's cue to checkpoint and AckEviction before
// the grace deadline.
func (g *Gang) EvictionNotice() <-chan struct{} { return g.noticeCh }

// EvictionIntent returns the posted intent, if any. It stays readable
// after the eviction completes (the owner reads the reason while
// handling the resulting preemption).
func (g *Gang) EvictionIntent() (EvictionIntent, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.intent == nil {
		return EvictionIntent{}, false
	}
	return *g.intent, true
}

// Degraded reports whether an admitted gang lost part of its reservation
// to a node failure and is waiting for repair capacity.
func (g *Gang) Degraded() bool { //lint:allow deadexport test-observation point: the repair tests check a gang waits for capacity
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state == GangAdmitted && g.lost > 0
}

// PlacementLatency is the queue wait from submission to admission (zero
// while pending).
func (g *Gang) PlacementLatency() time.Duration { //lint:allow deadexport test-observation point: queue wait read by the starvation test and BenchmarkGangScheduler
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.admittedAt.IsZero() {
		return 0
	}
	return g.admittedAt.Sub(g.submittedAt)
}

// NodeReservations returns reserved GPUs keyed by node name.
func (g *Gang) NodeReservations() map[string]int { //lint:allow deadexport ROADMAP item 7's model test traces the scheduler through it
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(g.reserved))
	for n, k := range g.reserved {
		if k > 0 {
			out[n.Spec.Name] = k
		}
	}
	return out
}

// markEvicted closes the eviction channel exactly once.
func (g *Gang) markEvicted() {
	if !g.evicted {
		g.evicted = true
		close(g.evictedCh)
	}
}

// gangScheduler is the cluster's placement authority. Every GPU
// *decrement* — per-pod placement, gang reservation, repair — happens
// under mu, so a gang admission can plan across nodes and commit without
// another scheduler stealing the capacity in between. Increments
// (releases) only need the node lock; a racing plan can at worst miss
// fresh capacity, and the release's reschedule kick retries.
//
// Lock order: sched.mu > Gang.mu > Cluster.mu / Node.mu / Pod locks
// (evictLocked and repairLocked hold Gang.mu while listing pods or nodes
// via Cluster.mu; nothing may take Gang.mu while holding Cluster.mu).
type gangScheduler struct {
	c     *Cluster
	grace time.Duration // every eviction intent's deadline

	mu       sync.Mutex
	gangs    map[string]*Gang
	queue    gangQueue
	inflight map[*Node]int // GPUs of evicted gangs still held by dying pods
	seq      uint64
}

func newGangScheduler(c *Cluster, cfg Config) *gangScheduler {
	return &gangScheduler{
		c:        c,
		grace:    cfg.EvictionGracePeriod,
		gangs:    make(map[string]*Gang),
		inflight: make(map[*Node]int),
	}
}

// SubmitGang queues a pod group for atomic admission. It is idempotent:
// resubmitting a live (pending, admitted, or preempted) gang returns the
// existing handle, so a restarted Guardian can recover its reservation
// by name. Admission may happen synchronously when capacity is free.
func (c *Cluster) SubmitGang(spec GangSpec) (*Gang, error) {
	if spec.Name == "" || spec.Members < 1 || spec.GPUsPerMember < 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadGang, spec)
	}
	c.mu.Lock()
	stopped := c.stopped
	total, largestNode := 0, 0
	for _, n := range c.nodes {
		if spec.GPUType != "" && n.Spec.GPUType != spec.GPUType {
			continue
		}
		total += n.Spec.GPUs
		if n.Spec.GPUs > largestNode {
			largestNode = n.Spec.GPUs
		}
	}
	c.mu.Unlock()
	if stopped {
		return nil, ErrStopped
	}
	if spec.TotalGPUs() > total || spec.GPUsPerMember > largestNode {
		return nil, fmt.Errorf("%w: %d members x %d GPUs (type %q) on %d matching GPUs (largest node %d)",
			ErrGangUnsatisfiable, spec.Members, spec.GPUsPerMember, spec.GPUType, total, largestNode)
	}
	s := c.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.gangs[spec.Name]; ok {
		return g, nil
	}
	s.seq++
	g := &Gang{
		Spec:        spec,
		seq:         s.seq,
		state:       GangPending,
		reserved:    make(map[*Node]int),
		idle:        make(map[*Node]int),
		submittedAt: c.clk.Now(),
		evictedCh:   make(chan struct{}),
		noticeCh:    make(chan struct{}),
	}
	g.span = c.trace.StartSpan(spec.Trace, "gang-wait")
	g.span.SetPhase(trace.PhaseQueue)
	s.gangs[spec.Name] = g
	s.queue.push(g)
	s.rescheduleLocked()
	return g, nil
}

// GangByName returns the live gang (pending, admitted, or preempted), or
// nil.
func (c *Cluster) GangByName(name string) *Gang {
	s := c.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gangs[name]
}

// Gangs returns all live gangs sorted by name.
func (c *Cluster) Gangs() []*Gang { //lint:allow deadexport test-observation point: platform tests check no gang outlives its job
	s := c.sched
	s.mu.Lock()
	out := make([]*Gang, 0, len(s.gangs))
	for _, g := range s.gangs {
		out = append(out, g)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// CancelGang releases the gang's reservation and kills its member pods.
// It is idempotent and is the Guardian's rollback hook: a partially
// deployed job's gang disappears atomically with its pods.
func (c *Cluster) CancelGang(name string) {
	s := c.sched
	s.mu.Lock()
	g := s.gangs[name]
	var victims []*Pod
	if g != nil {
		if g.span != nil && !g.span.Ended() {
			g.span.SetAttr("outcome", "cancelled")
			g.span.End()
		}
		victims = s.evictLocked(g, GangReleased)
		delete(s.gangs, name)
		s.rescheduleLocked()
	}
	s.mu.Unlock()
	for _, p := range victims {
		p.kill()
	}
}

// AckEviction completes a gang's posted eviction intent early: the
// owner has checkpointed and the scheduler may take the capacity now
// instead of waiting for the grace deadline. It is a no-op unless the
// gang is currently evicting.
func (c *Cluster) AckEviction(name string) {
	s := c.sched
	s.mu.Lock()
	g := s.gangs[name]
	s.mu.Unlock()
	if g != nil {
		s.completeEviction(g)
	}
}

// postIntentLocked opens the two-phase eviction for an admitted gang:
// the gang keeps its reservation and its pods keep running while the
// owner checkpoints; AckEviction or the grace-deadline timer finishes
// the job (a zero grace arms the timer for now). Preemption and drain
// start every eviction here. Caller holds s.mu.
func (s *gangScheduler) postIntentLocked(g *Gang, reason string) {
	g.mu.Lock()
	if g.state != GangAdmitted {
		g.mu.Unlock()
		return
	}
	now := s.c.clk.Now()
	g.state = GangEvicting
	g.intent = &EvictionIntent{Reason: reason, PostedAt: now, Deadline: now.Add(s.grace)}
	close(g.noticeCh)
	g.span.Event("eviction-intent:" + reason)
	g.mu.Unlock()
	// The deadline backstop: a wedged owner that never acks cannot hold
	// the capacity past the grace period. The timer handle is installed
	// before s.mu is released, so any completion path (which needs s.mu)
	// finds and stops it.
	t := s.c.clk.AfterFunc(s.grace, func() { s.completeEviction(g) })
	g.mu.Lock()
	g.graceTimer = t
	g.mu.Unlock()
}

// completeEviction finishes a posted intent: the reservation is
// released, the member pods die, and the gang becomes GangPreempted for
// its owner to redeploy. Idempotent: the ack path and the deadline timer
// may race, and a gang cancelled during its grace window is simply gone.
func (s *gangScheduler) completeEviction(g *Gang) {
	s.mu.Lock()
	if g.State() != GangEvicting {
		s.mu.Unlock()
		return
	}
	pods := s.evictLocked(g, GangPreempted)
	s.rescheduleLocked()
	s.mu.Unlock()
	for _, p := range pods {
		p.kill()
	}
}

// drainGangs gracefully evicts every gang holding reservation on n,
// in reverse-priority order (lowest priority first, newest first within
// a priority) — the node-drain path through the gang scheduler, so
// drain and preemption share one eviction protocol and the holdings
// ledger stays consistent.
func (s *gangScheduler) drainGangs(n *Node) {
	if n == nil {
		return
	}
	s.mu.Lock()
	var resident []*Gang
	for _, g := range s.gangs {
		g.mu.Lock()
		held := g.reserved[n]
		st := g.state
		g.mu.Unlock()
		if held > 0 && st == GangAdmitted {
			resident = append(resident, g)
		}
	}
	sort.Slice(resident, func(i, j int) bool {
		a, b := resident[i], resident[j]
		if a.Spec.Priority != b.Spec.Priority {
			return a.Spec.Priority < b.Spec.Priority
		}
		return a.seq > b.seq
	})
	for _, g := range resident {
		s.postIntentLocked(g, EvictReasonDrain)
	}
	s.rescheduleLocked()
	s.mu.Unlock()
}

// evictLocked takes the gang out of service: pending gangs leave the
// queue; admitted (and evicting) gangs return idle reservation to their
// nodes and move the bound remainder to the inflight ledger (it returns
// to the nodes as the member pods die). The gang's member pods are
// returned for the caller to kill outside sched.mu-critical work.
func (s *gangScheduler) evictLocked(g *Gang, to GangState) []*Pod {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.state {
	case GangReleased:
		return nil
	case GangPreempted:
		// Reservation already gone; finalize the state and sweep up any
		// member pods recreated (and left pending) since the eviction.
		g.state = to
		return s.memberPodsLocked(g.Spec.Name)
	case GangPending:
		s.queue.remove(g)
		g.state = to
		g.markEvicted()
		return nil
	}
	// Admitted or evicting: give idle capacity back now, track bound
	// capacity as in-flight until the pods release it.
	for n, k := range g.idle {
		if k <= 0 {
			continue
		}
		n.mu.Lock()
		if !n.down {
			n.freeGPUs += k
			if n.freeGPUs > n.Spec.GPUs {
				n.freeGPUs = n.Spec.GPUs
			}
		}
		n.mu.Unlock()
	}
	for n, r := range g.reserved {
		bound := r - g.idle[n]
		if bound > 0 && !n.Down() {
			s.inflight[n] += bound
		}
	}
	g.idle = make(map[*Node]int)
	g.reserved = make(map[*Node]int)
	g.lost = 0
	g.state = to
	// An early completion (ack) or cancellation retires the grace
	// deadline; leaving it armed would park a stale wakeup on the clock.
	if g.graceTimer != nil {
		g.graceTimer.Stop()
		g.graceTimer = nil
	}
	g.markEvicted()
	return s.memberPodsLocked(g.Spec.Name)
}

// memberPodsLocked lists the gang's pods (lock order: sched.mu > c.mu).
func (s *gangScheduler) memberPodsLocked(gang string) []*Pod {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	var out []*Pod
	for _, p := range s.c.pods {
		if p.Spec.Gang == gang {
			out = append(out, p)
		}
	}
	sortPodsByName(out)
	return out
}

// placePod reserves capacity for one pod. Gang members bind to their
// gang's idle reservation; everything else goes through the per-pod
// policy placement. Returns nil when nothing fits (the pod keeps
// waiting).
func (s *gangScheduler) placePod(spec PodSpec) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.Gang != "" {
		return s.placeGangPodLocked(spec)
	}
	return s.placeSingleLocked(spec)
}

// placeGangPodLocked binds a member pod to its gang's reservation.
func (s *gangScheduler) placeGangPodLocked(spec PodSpec) *Node {
	g := s.gangs[spec.Gang]
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state != GangAdmitted {
		return nil
	}
	// Deterministic choice: lowest node name with enough idle reservation.
	var chosen *Node
	for n, k := range g.idle {
		if k < spec.GPUs || n.Down() || n.Cordoned() {
			continue
		}
		if chosen == nil || n.Spec.Name < chosen.Spec.Name {
			chosen = n
		}
	}
	if chosen == nil {
		return nil
	}
	g.idle[chosen] -= spec.GPUs
	return chosen
}

// placeSingleLocked is the per-pod path: first fit in node-name order
// (bin-pack), serialized under sched.mu so it cannot race a gang commit.
func (s *gangScheduler) placeSingleLocked(spec PodSpec) *Node {
	for _, n := range s.c.Nodes() {
		n.mu.Lock()
		ok := !n.down && !n.cordoned &&
			n.freeGPUs >= spec.GPUs &&
			(spec.GPUType == "" || spec.GPUType == n.Spec.GPUType)
		if ok {
			n.freeGPUs -= spec.GPUs
		}
		n.mu.Unlock()
		if ok {
			return n
		}
	}
	return nil
}

// podReleased returns a finished pod's GPUs: to its gang's idle pool when
// the reservation is still live, otherwise to the node. Every release is
// a capacity event, so the queue is rescheduled.
func (s *gangScheduler) podReleased(n *Node, spec PodSpec) {
	if n == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	toNode := spec.GPUs
	if spec.Gang != "" {
		if g := s.gangs[spec.Gang]; g != nil {
			g.mu.Lock()
			// The reservation may be gone (gang evicted, or the node
			// crashed and zeroed it); only then do the GPUs bypass the
			// gang and go straight back to the node. A gang mid-grace
			// (Evicting) still owns its reservation.
			if (g.state == GangAdmitted || g.state == GangEvicting) && g.idle[n]+spec.GPUs <= g.reserved[n] {
				g.idle[n] += spec.GPUs
				toNode = 0
			}
			g.mu.Unlock()
		}
	}
	if toNode > 0 {
		n.mu.Lock()
		if !n.down {
			n.freeGPUs += toNode
			if n.freeGPUs > n.Spec.GPUs {
				n.freeGPUs = n.Spec.GPUs
			}
		}
		n.mu.Unlock()
		// Only the dying pods of evicted gangs were credited to the
		// inflight ledger; a plain pod's release must not drain it, or
		// the preemption projection undercounts capacity already on its
		// way and over-preempts.
		if spec.Gang != "" {
			if f := s.inflight[n]; f > 0 {
				if toNode >= f {
					delete(s.inflight, n)
				} else {
					s.inflight[n] = f - toNode
				}
			}
		}
	}
	s.rescheduleLocked()
}

// nodeDown withdraws a crashed node from every ledger: gang reservations
// on it are lost (the affected gangs become degraded and queue repairs),
// and its in-flight returns will never arrive.
func (s *gangScheduler) nodeDown(dn *Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, dn)
	for _, g := range s.gangs {
		g.mu.Lock()
		if r := g.reserved[dn]; r > 0 {
			if size := g.Spec.GPUsPerMember; size > 0 {
				g.lost += r / size
			}
			delete(g.reserved, dn)
			delete(g.idle, dn)
		}
		g.mu.Unlock()
	}
	s.rescheduleLocked()
}

// kick re-runs scheduling after an external capacity event (node
// restart, uncordon, drain).
func (s *gangScheduler) kick() {
	s.mu.Lock()
	s.rescheduleLocked()
	s.mu.Unlock()
}

// rescheduleLocked is the scheduling pass: repair degraded gangs, admit
// from the head of the priority queue, then preempt and backfill for
// whatever still waits.
func (s *gangScheduler) rescheduleLocked() {
	s.repairLocked()
	for {
		head := s.queue.head()
		if head == nil {
			return
		}
		if s.admitLocked(head, s.planLocked(head.Spec, nil), false) {
			continue
		}
		break
	}
	head := s.queue.head()
	s.preemptForLocked(head)
	limit := s.backfillLimit(head)
	for i := 1; i < s.queue.len(); {
		g := s.queue.at(i)
		if s.admitLocked(g, s.planLocked(g.Spec, limit), true) {
			// Removal shifted the slice (same index is the next gang),
			// and the admission consumed backfill budget: rebuild the
			// cap so one pass cannot overshoot it.
			limit = s.backfillLimit(head)
			continue
		}
		i++
	}
}

// admitLocked commits a placement plan: node capacity moves into the
// gang's reservation and the gang leaves the queue. A nil plan admits
// nothing. viaBackfill marks gangs that jumped a waiting head, so their
// holdings count against the backfill budget until they release.
func (s *gangScheduler) admitLocked(g *Gang, plan map[*Node]int, viaBackfill bool) bool {
	if plan == nil {
		return false
	}
	g.mu.Lock()
	for n, k := range plan {
		n.mu.Lock()
		n.freeGPUs -= k
		n.mu.Unlock()
		g.reserved[n] += k
		g.idle[n] += k
	}
	g.backfilled = viaBackfill
	g.state = GangAdmitted
	g.admittedAt = s.c.clk.Now()
	if g.span != nil {
		g.span.SetAttr("backfill", fmt.Sprintf("%v", viaBackfill))
		g.span.End()
	}
	g.mu.Unlock()
	s.queue.remove(g)
	return true
}

// planLocked bin-packs the gang's members over schedulable nodes,
// filling them in name order, and returns GPUs per node, or nil when the
// gang does not fit as a whole. limit optionally caps the usable free
// GPUs per node (the backfill guard).
func (s *gangScheduler) planLocked(spec GangSpec, limit func(n *Node, free int) int) map[*Node]int {
	size := spec.GPUsPerMember
	if size == 0 {
		// GPU-less gangs occupy no capacity: admit immediately.
		return map[*Node]int{}
	}
	plan := make(map[*Node]int)
	remaining := spec.Members
	for _, n := range s.c.Nodes() {
		n.mu.Lock()
		ok := !n.down && !n.cordoned && (spec.GPUType == "" || n.Spec.GPUType == spec.GPUType)
		free := n.freeGPUs
		n.mu.Unlock()
		if !ok {
			continue
		}
		if limit != nil {
			free = limit(n, free)
		}
		if k := min(free/size, remaining); k > 0 {
			plan[n] = k * size
			remaining -= k
		}
		if remaining == 0 {
			return plan
		}
	}
	return nil
}

// backfillLimit builds the per-node cap that lets a small gang slip past
// the waiting head without delaying it — now or ever. On nodes the head
// can use, two guards compose:
//
//   - free % (head's member size): only the current fragmentation
//     remainder is up for grabs, so the count of head members placeable
//     right now never shrinks.
//   - capacity % (head's member size), minus what backfilled gangs
//     already hold there: total backfill holdings never exceed the
//     remainder the head could not use even on a fully drained node.
//     Without this budget a continuous stream of small gangs can re-grab
//     each remainder the moment an earlier backfill releases it, and the
//     node oscillates below a full member slot forever — the backfill-
//     starvation scenario.
//
// On nodes the head cannot use (GPU type mismatch), everything is fair
// game.
func (s *gangScheduler) backfillLimit(head *Gang) func(n *Node, free int) int {
	if head == nil {
		return nil
	}
	hs := head.Spec.GPUsPerMember
	ht := head.Spec.GPUType
	if hs == 0 {
		return nil
	}
	held := make(map[*Node]int)
	for _, g := range s.gangs {
		g.mu.Lock()
		if g.state == GangAdmitted && g.backfilled {
			for n, r := range g.reserved {
				held[n] += r
			}
		}
		g.mu.Unlock()
	}
	return func(n *Node, free int) int {
		if ht != "" && n.Spec.GPUType != ht {
			return free
		}
		budget := n.Spec.GPUs%hs - held[n]
		if budget < 0 {
			budget = 0
		}
		if frag := free % hs; frag < budget {
			return frag
		}
		return budget
	}
}

// preemptForLocked evicts lower-priority gangs so the head of the queue
// will fit once their pods die. Victim order is tenant-aware: lowest
// priority first, then gangs of the tenant holding the most reserved
// GPUs, then the most recently admitted — so a tenant hogging the
// cluster pays before a modest one, and older work survives longer.
// Capacity already in flight (from earlier evictions) and reservations
// of gangs mid-grace both count toward the projection, so repeated
// passes never over-preempt. Victims get an eviction intent
// (checkpoint-before-preempt); the capacity moves at ack or deadline.
func (s *gangScheduler) preemptForLocked(head *Gang) {
	if head == nil {
		return
	}
	hs := head.Spec.GPUsPerMember
	ht := head.Spec.GPUType
	if hs == 0 {
		return
	}
	// Projected usable capacity per node: free + in-flight returns.
	avail := make(map[*Node]int)
	for _, n := range s.c.Nodes() {
		n.mu.Lock()
		ok := !n.down && !n.cordoned && (ht == "" || n.Spec.GPUType == ht)
		free := n.freeGPUs
		n.mu.Unlock()
		if !ok {
			continue
		}
		avail[n] = free + s.inflight[n]
	}
	// Capacity already promised through the grace protocol counts too:
	// an evicting gang's reservation arrives at ack or deadline, so
	// reschedule passes during the grace window must not pick fresh
	// victims for the same shortfall.
	for _, g := range s.gangs {
		g.mu.Lock()
		if g.state == GangEvicting {
			for n, r := range g.reserved {
				if _, ok := avail[n]; ok {
					avail[n] += r
				}
			}
		}
		g.mu.Unlock()
	}
	placeable := 0
	for _, a := range avail {
		placeable += a / hs
	}
	if placeable >= head.Spec.Members {
		return // enough capacity is already free or on its way
	}
	// Candidate victims: strictly lower-priority admitted gangs.
	tenantHeld := make(map[string]int)
	var cands []*Gang
	for _, g := range s.gangs {
		g.mu.Lock()
		if g.state == GangAdmitted {
			held := 0
			for _, k := range g.reserved {
				held += k
			}
			tenantHeld[g.Spec.Tenant] += held
			if g.Spec.Priority < head.Spec.Priority {
				cands = append(cands, g)
			}
		}
		g.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Spec.Priority != b.Spec.Priority {
			return a.Spec.Priority < b.Spec.Priority
		}
		if tenantHeld[a.Spec.Tenant] != tenantHeld[b.Spec.Tenant] {
			return tenantHeld[a.Spec.Tenant] > tenantHeld[b.Spec.Tenant]
		}
		return a.seq > b.seq
	})
	var victims []*Gang
	for _, v := range cands {
		if placeable >= head.Spec.Members {
			break
		}
		victims = append(victims, v)
		v.mu.Lock()
		for n, r := range v.reserved {
			if _, ok := avail[n]; !ok {
				continue // node unusable for the head
			}
			placeable -= avail[n] / hs
			avail[n] += r
			placeable += avail[n] / hs
		}
		v.mu.Unlock()
	}
	if placeable < head.Spec.Members {
		return // preempting everything eligible still would not fit: don't
	}
	for _, v := range victims {
		s.postIntentLocked(v, EvictReasonPreemption)
	}
	// The head admits via the reschedule kicks of the completed
	// evictions and their dying pods.
}

// repairLocked restores admitted gangs after topology changes: idle
// reservation stranded on cordoned nodes migrates to schedulable ones,
// and members lost to node crashes are re-reserved (all-or-nothing, like
// admission) as capacity allows. Higher-priority gangs repair first.
// Only degraded gangs are collected: a pass over a healthy cluster, which
// is nearly every pass, returns before allocating.
func (s *gangScheduler) repairLocked() {
	var degraded []*Gang
	for _, g := range s.gangs {
		if g.degraded() {
			degraded = append(degraded, g)
		}
	}
	if len(degraded) == 0 {
		return
	}
	sort.Slice(degraded, func(i, j int) bool { return less(degraded[i], degraded[j]) })
	for _, g := range degraded {
		size := g.Spec.GPUsPerMember
		g.mu.Lock()
		// Migrate idle reservation off unschedulable nodes, in node-name
		// order: each move consumes spare capacity, so when the spare fits
		// only some of them, which one moves must not follow map order.
		var stranded []*Node
		for n, k := range g.idle {
			if k >= size && (n.Down() || n.Cordoned()) {
				stranded = append(stranded, n)
			}
		}
		slices.SortFunc(stranded, func(a, b *Node) int { return strings.Compare(a.Spec.Name, b.Spec.Name) })
		for _, n := range stranded {
			members := g.idle[n] / size
			moveSpec := g.Spec
			moveSpec.Members = members
			plan := s.planLocked(moveSpec, nil)
			if plan == nil {
				continue
			}
			g.idle[n] -= members * size
			g.reserved[n] -= members * size
			n.mu.Lock()
			if !n.down {
				n.freeGPUs += members * size
			}
			n.mu.Unlock()
			for pn, pk := range plan {
				pn.mu.Lock()
				pn.freeGPUs -= pk
				pn.mu.Unlock()
				g.reserved[pn] += pk
				g.idle[pn] += pk
			}
		}
		// Re-reserve members lost to node failures.
		if g.lost > 0 {
			repairSpec := g.Spec
			repairSpec.Members = g.lost
			if plan := s.planLocked(repairSpec, nil); plan != nil {
				for pn, pk := range plan {
					pn.mu.Lock()
					pn.freeGPUs -= pk
					pn.mu.Unlock()
					g.reserved[pn] += pk
					g.idle[pn] += pk
				}
				g.lost = 0
			}
		}
		g.mu.Unlock()
	}
}

// degraded reports whether repairLocked has work on the gang: it is
// admitted, and has members lost to a node crash or idle reservation on a
// down or cordoned node. Repairing one gang never degrades another.
func (g *Gang) degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	size := g.Spec.GPUsPerMember
	if g.state != GangAdmitted || size == 0 {
		return false
	}
	if g.lost > 0 {
		return true
	}
	for n, k := range g.idle {
		if k >= size && (n.Down() || n.Cordoned()) {
			return true
		}
	}
	return false
}
