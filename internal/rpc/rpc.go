// Package rpc is an in-process stand-in for the gRPC fabric that connects
// the DLaaS microservices. It provides what the paper's dependability
// story needs from the real thing: a service registry with dynamic
// instance registration (the paper's "API service instances are
// dynamically registered into a K8S service registry"), round-robin load
// balancing, automatic fail-over to healthy instances, and unavailability
// errors when every instance of a service is down.
//
// Calls are delivered by direct function invocation with a small modeled
// network latency charged to the virtual clock, so loose coupling and
// independent failure — not wire format — are what is simulated.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// ErrUnavailable is returned when a service has no healthy instances.
var ErrUnavailable = errors.New("rpc: service unavailable")

// ErrNotRegistered is returned when the service name is unknown.
var ErrNotRegistered = errors.New("rpc: service not registered")

// Handler processes a single unary call.
type Handler func(ctx context.Context, method string, req any) (any, error)

// defaultCallLatency is the modeled one-way in-datacenter RPC cost.
const defaultCallLatency = 500 * time.Microsecond

// Bus routes calls between registered service instances.
type Bus struct {
	clk     clock.Clock
	latency time.Duration
	tracer  *trace.Recorder

	mu       sync.Mutex
	services map[string]*service
	// notify is closed (and replaced lazily) whenever instance health or
	// membership changes, waking WaitHealthy callers — the readiness
	// signal that replaces busy-wait polling at platform boot.
	notify chan struct{}
}

type service struct {
	instances []*Registration
	next      int
}

// Registration is a single live instance of a service.
type Registration struct {
	bus     *Bus
	service string

	// ID identifies the instance, e.g. the pod name hosting it.
	ID string

	mu      sync.Mutex
	handler Handler
	up      bool
	gone    bool
}

// Option configures a Bus.
type Option func(*Bus)

// WithCallLatency overrides the modeled per-call network latency.
func WithCallLatency(d time.Duration) Option {
	return func(b *Bus) { b.latency = d }
}

// WithTracer attaches a span recorder: a call whose context carries a
// trace.SpanContext is wrapped in an "rpc:<service>/<method>" child
// span, and the handler sees the context re-pointed at that span. A
// nil recorder is accepted and ignored.
func WithTracer(r *trace.Recorder) Option {
	return func(b *Bus) { b.tracer = r }
}

// NewBus returns an empty service registry on clk.
func NewBus(clk clock.Clock, opts ...Option) *Bus {
	b := &Bus{
		clk:      clk,
		latency:  defaultCallLatency,
		services: make(map[string]*service),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Register adds an instance of name served by h and returns its
// registration handle. Instances start healthy.
func (b *Bus) Register(name, id string, h Handler) *Registration {
	r := &Registration{bus: b, service: name, ID: id, handler: h, up: true}
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[name]
	if svc == nil {
		svc = &service{}
		b.services[name] = svc
	}
	svc.instances = append(svc.instances, r)
	b.healthChangedLocked()
	return r
}

// healthChangedLocked wakes WaitHealthy waiters; callers hold b.mu.
func (b *Bus) healthChangedLocked() {
	if b.notify != nil {
		close(b.notify)
		b.notify = nil
	}
}

// healthWatch returns a channel closed on the next health change.
func (b *Bus) healthWatch() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.notify == nil {
		b.notify = make(chan struct{})
	}
	return b.notify
}

// healthStep is the longest WaitHealthy waits on one timer. At platform
// boot its timeout can be the only thing armed: the election, pod and
// heartbeat timers that would come first are armed by goroutines that
// have yet to run, and an idle-advance clock that finds the process
// starved of CPU for a quiet span would jump straight to the timeout. A
// waiter that re-arms every healthStep turns that into a few virtual
// seconds of delay, and gives the starved goroutines one quiet span per
// step to get a CPU (24 of them over the platform's two-minute boot
// timeout). A boot ready within one step, as every boot is on a machine
// that keeps up, pays nothing for it.
const healthStep = 5 * time.Second

// WaitHealthy blocks until every named service has at least min healthy
// instances, or timeout (on the bus clock) passes; it reports success.
// Unlike polling HealthyInstances, it wakes on the registration or
// recovery event itself.
func (b *Bus) WaitHealthy(timeout time.Duration, min int, names ...string) bool {
	deadline := b.clk.Now().Add(timeout)
	for {
		ch := b.healthWatch()
		ready := true
		for _, n := range names {
			if b.HealthyInstances(n) < min {
				ready = false
				break
			}
		}
		if ready {
			return true
		}
		remaining := deadline.Sub(b.clk.Now())
		if remaining <= 0 {
			return false
		}
		if remaining > healthStep {
			remaining = healthStep
		}
		t := b.clk.NewTimer(remaining)
		select {
		case <-ch:
			t.Stop()
		case <-t.C():
		}
	}
}

// Deregister removes the instance from the registry permanently.
func (r *Registration) Deregister() {
	r.mu.Lock()
	r.gone = true
	r.up = false
	r.mu.Unlock()

	b := r.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[r.service]
	if svc == nil {
		return
	}
	for i, in := range svc.instances {
		if in == r {
			svc.instances = append(svc.instances[:i], svc.instances[i+1:]...)
			break
		}
	}
	b.healthChangedLocked()
}

// SetUp marks the instance healthy (true) or crashed (false). A crashed
// instance stays registered but receives no traffic, modeling a pod that
// K8s will restart in place.
func (r *Registration) SetUp(up bool) {
	r.mu.Lock()
	changed := !r.gone && r.up != up
	if !r.gone {
		r.up = up
	}
	r.mu.Unlock()
	if changed {
		// Signal outside r.mu: Call/pick acquire bus.mu before r.mu, so
		// holding r.mu here would invert the lock order.
		r.bus.mu.Lock()
		r.bus.healthChangedLocked()
		r.bus.mu.Unlock()
	}
}

// Up reports whether the instance is currently serving.
func (r *Registration) Up() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up
}

// HealthyInstances reports how many instances of name can serve traffic.
func (b *Bus) HealthyInstances(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[name]
	if svc == nil {
		return 0
	}
	n := 0
	for _, in := range svc.instances {
		if in.Up() {
			n++
		}
	}
	return n
}

// Call invokes method on a healthy instance of name, load-balancing
// round-robin and failing over past crashed instances. It returns
// ErrUnavailable if no instance can serve, or ErrNotRegistered if the
// service name was never registered.
func (b *Bus) Call(ctx context.Context, name, method string, req any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.tracer != nil {
		if sc, ok := trace.FromContext(ctx); ok {
			sp := b.tracer.StartSpan(sc, "rpc:"+name+"/"+method)
			defer sp.End()
			ctx = trace.NewContext(ctx, sp.Context())
		}
	}
	inst, err := b.pick(name)
	if err != nil {
		return nil, fmt.Errorf("calling %s.%s: %w", name, method, err)
	}
	b.clk.Sleep(b.latency)
	inst.mu.Lock()
	h := inst.handler
	up := inst.up
	inst.mu.Unlock()
	if !up {
		// Crashed between pick and dispatch; surface as unavailability
		// so callers retry, as a TCP RST would in the real system.
		return nil, fmt.Errorf("calling %s.%s on %s: %w", name, method, inst.ID, ErrUnavailable)
	}
	resp, err := h(ctx, method, req)
	if err != nil {
		return nil, err
	}
	b.clk.Sleep(b.latency)
	return resp, nil
}

// pick selects the next healthy instance round-robin.
func (b *Bus) pick(name string) (*Registration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[name]
	if svc == nil {
		return nil, ErrNotRegistered
	}
	n := len(svc.instances)
	for i := 0; i < n; i++ {
		inst := svc.instances[(svc.next+i)%n]
		if inst.Up() {
			svc.next = (svc.next + i + 1) % n
			return inst, nil
		}
	}
	return nil, ErrUnavailable
}
