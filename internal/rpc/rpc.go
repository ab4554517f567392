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
// independent failure — not wire format — are what is simulated. A call
// sleeps both one-way legs in one sleep and then runs the handler: its
// reads and writes take effect when the reply arrives, inside the call,
// and a handler that waits on nothing costs the call one instant.
//
// A call to one of the service's read methods (Register) does not sleep
// the legs first: it owes them on the handler's context (clock.Owe), and
// the handler's first wait, a MongoDB read, pays them in the same sleep
// as its own latency (clock.Settle). The read still lands, and the call
// still returns, at the same virtual times, in one instant instead of
// two.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

	handler Handler
	// reads are the methods whose calls owe the legs to the handler.
	reads []string

	mu   sync.Mutex
	gone bool
}

// Option configures a Bus.
type Option func(*Bus)

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
//
// reads names the service's read methods: a handler for one of them has
// no effect, and its first wait is a MongoDB read that settles the
// context's debt (mongo.Collection.FindID). A call to a read method owes
// both legs on the handler's context instead of sleeping them first; see
// Call.
func (b *Bus) Register(name, id string, h Handler, reads ...string) *Registration {
	r := &Registration{bus: b, service: name, ID: id, handler: h, reads: reads}
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

// Up reports whether the instance is still registered.
func (r *Registration) Up() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.gone
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
// A call takes two one-way legs, paid in one sleep before the handler
// runs, plus whatever the handler waits: the handler acts at the call's
// return instant, inside its interval, so a read through it stays
// linearizable. An error reply pays both legs too; an instance that leaves
// during them fails the call with ErrUnavailable, its handler not run.
// Whatever ctx owes (clock.Owe) is paid in the same sleep as the legs.
//
// A call to a read method (Register) runs the handler at once on a
// context that owes both legs, so the handler's first wait pays them with
// its own latency, and the read lands where it would have: legs plus the
// read's latency into the call. Whatever is still owed when the handler
// returns is slept then. If the instance left meanwhile, the answer is
// dropped and the call fails with ErrUnavailable: a read has no effect, so
// the instance having run it changes nothing.
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
	if slices.Contains(inst.reads, method) {
		return b.read(ctx, inst, method, req)
	}
	clock.Settle(ctx, b.clk, 2*b.latency)
	if !inst.Up() {
		// Deregistered between pick and dispatch (its pod died); surface
		// as unavailability so callers retry, as a TCP RST would in the
		// real system.
		return nil, unavailable(inst, method)
	}
	return inst.handler(ctx, method, req)
}

// read is Call's path for a read method: the handler runs on a context
// that owes both legs, and the instance's departure is checked once the
// debt is paid.
func (b *Bus) read(ctx context.Context, inst *Registration, method string, req any) (any, error) {
	ctx = clock.Owe(ctx, 2*b.latency)
	resp, err := inst.handler(ctx, method, req)
	clock.Settle(ctx, b.clk, 0)
	if !inst.Up() {
		return nil, unavailable(inst, method)
	}
	return resp, err
}

// unavailable is the error of a call whose instance left before it
// answered.
func unavailable(inst *Registration, method string) error {
	return fmt.Errorf("calling %s.%s on %s: %w", inst.service, method, inst.ID, ErrUnavailable)
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
