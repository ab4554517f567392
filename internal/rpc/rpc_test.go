package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

func newTestBus() (*Bus, *clock.Sim) {
	clk := clock.NewSim()
	return NewBus(clk), clk
}

func echoHandler(id string) Handler {
	return func(_ context.Context, method string, req any) (any, error) {
		return fmt.Sprintf("%s:%s:%v", id, method, req), nil
	}
}

func TestCallUnknownService(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	_, err := b.Call(context.Background(), "nope", "m", nil)
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestCallRoundRobin(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	b.Register("api", "a", echoHandler("a"))
	b.Register("api", "b", echoHandler("b"))

	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		resp, err := b.Call(context.Background(), "api", "status", i)
		if err != nil {
			t.Fatal(err)
		}
		seen[resp.(string)[:1]]++
	}
	if seen["a"] != 3 || seen["b"] != 3 {
		t.Fatalf("round robin distribution = %v, want 3/3", seen)
	}
}

// TestFailoverSkipsCrashedInstance: a crashed pod's instance deregisters
// (the service's deferred Deregister), and calls fail over past it. Its
// restart registers a new instance.
func TestFailoverSkipsCrashedInstance(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	ra := b.Register("api", "a", echoHandler("a"))
	b.Register("api", "b", echoHandler("b"))

	ra.Deregister()
	for i := 0; i < 4; i++ {
		resp, err := b.Call(context.Background(), "api", "m", nil)
		if err != nil {
			t.Fatalf("call %d failed: %v", i, err)
		}
		if resp.(string)[:1] != "b" {
			t.Fatalf("call %d routed to crashed instance: %v", i, resp)
		}
	}
	if got := b.HealthyInstances("api"); got != 1 {
		t.Fatalf("healthy = %d, want 1", got)
	}
}

func TestAllInstancesDown(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	ra := b.Register("api", "a", echoHandler("a"))
	ra.Deregister()
	_, err := b.Call(context.Background(), "api", "m", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	ra := b.Register("api", "a", echoHandler("a"))
	ra.Deregister()
	if _, err := b.Call(context.Background(), "api", "m", nil); err == nil {
		t.Fatal("expected unavailability while crashed")
	}
	b.Register("api", "a-restarted", echoHandler("a")) // K8s restarted the pod
	if _, err := b.Call(context.Background(), "api", "m", nil); err != nil {
		t.Fatalf("call after recovery failed: %v", err)
	}
}

func TestDeregisterRemovesPermanently(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	ra := b.Register("api", "a", echoHandler("a"))
	ra.Deregister()
	ra.Deregister() // idempotent, and nothing resurrects the instance
	_, err := b.Call(context.Background(), "api", "m", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	sentinel := errors.New("boom")
	b.Register("api", "a", func(context.Context, string, any) (any, error) {
		return nil, sentinel
	})
	_, err := b.Call(context.Background(), "api", "m", nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestContextCancellation(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	b.Register("api", "a", echoHandler("a"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := b.Call(ctx, "api", "m", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCallChargesLatency(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	b := NewBus(clk)
	b.Register("api", "a", echoHandler("a"))
	start := clk.Now()
	if _, err := b.Call(context.Background(), "api", "m", nil); err != nil {
		t.Fatal(err)
	}
	if got := clk.Since(start); got < 2*defaultCallLatency {
		t.Fatalf("virtual latency = %v, want >= %v", got, 2*defaultCallLatency)
	}
}

// callOn runs a call on its own goroutine and returns a channel that
// carries its error and the virtual time it returned at.
func callOn(b *Bus, clk *clock.Sim) <-chan callResult {
	done := make(chan callResult, 1)
	go func() {
		_, err := b.Call(context.Background(), "api", "m", nil)
		done <- callResult{at: clk.Now(), err: err}
	}()
	return done
}

type callResult struct {
	at  time.Time
	err error
}

func await(t *testing.T, done <-chan callResult) callResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("the call did not return")
		return callResult{}
	}
}

// TestCallPaysBothLegsInOneSleep pins the bus contract on a manual clock:
// a call sleeps both one-way legs in one sleep and then runs the handler,
// so the handler sees the reply's instant, the call returns when the
// handler does, and a call fires one instant, or two if its handler
// sleeps. An error reply pays both legs as well.
func TestCallPaysBothLegsInOneSleep(t *testing.T) {
	const legs = 2 * defaultCallLatency
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		wait     time.Duration // what the handler sleeps
		err      error         // what it answers
		instants uint64
	}{
		{"reply", 0, nil, 1},
		{"handler sleeps", 3 * time.Millisecond, nil, 2},
		{"error reply", 0, boom, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			t.Cleanup(clk.Close)
			b := NewBus(clk)
			var seen time.Time
			b.Register("api", "a", func(context.Context, string, any) (any, error) {
				seen = clk.Now()
				clk.Sleep(tc.wait)
				return "ok", tc.err
			})
			start, before := clk.Now(), clk.Instants()
			done := callOn(b, clk)
			clocktest.Run(clk, time.Second)
			r := await(t, done)
			if !errors.Is(r.err, tc.err) {
				t.Fatalf("err = %v, want %v", r.err, tc.err)
			}
			if got := seen.Sub(start); got != legs {
				t.Fatalf("handler ran %v into the call, want both legs, %v", got, legs)
			}
			if got := r.at.Sub(start); got != legs+tc.wait {
				t.Fatalf("call returned %v after it started, want %v", got, legs+tc.wait)
			}
			if got := clk.Instants() - before; got != tc.instants {
				t.Fatalf("call fired %d instants, want %d", got, tc.instants)
			}
		})
	}
}

// TestDeregisteredDuringTheLegs: an instance that leaves while a call to
// it is in flight fails the call with ErrUnavailable when the legs end,
// and its handler never runs.
func TestDeregisteredDuringTheLegs(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	b := NewBus(clk)
	ran := false
	reg := b.Register("api", "a", func(context.Context, string, any) (any, error) {
		ran = true
		return "ok", nil
	})
	start := clk.Now()
	done := callOn(b, clk)
	clocktest.Run(clk, defaultCallLatency)
	reg.Deregister()
	clocktest.Run(clk, time.Second)
	r := await(t, done)
	if !errors.Is(r.err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", r.err)
	}
	if ran {
		t.Fatal("the deregistered instance's handler ran")
	}
	if got := r.at.Sub(start); got != 2*defaultCallLatency {
		t.Fatalf("call failed %v after it started, want at the end of both legs, %v", got, 2*defaultCallLatency)
	}
}

// readLatency stands in for a MongoDB read, the first wait of a read
// method's handler.
const readLatency = 500 * time.Microsecond

// TestReadRidesTheLegs: a call to a read method owes both legs on the
// handler's context, so the handler's first wait pays them with its own
// latency. The read lands at legs + read, where it would have landed had
// the legs been slept first, the call returns then, and the two cost one
// instant. A handler that waits on nothing pays the legs after it returns.
func TestReadRidesTheLegs(t *testing.T) {
	const legs = 2 * defaultCallLatency
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		wait time.Duration // what the handler's first wait adds to the debt
		err  error         // what it answers
	}{
		{"read", readLatency, nil},
		{"read fails", readLatency, boom},
		{"no wait", 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			t.Cleanup(clk.Close)
			b := NewBus(clk)
			var landed time.Time
			b.Register("api", "a", func(ctx context.Context, _ string, _ any) (any, error) {
				if tc.wait > 0 {
					clock.Settle(ctx, clk, tc.wait)
				}
				landed = clk.Now()
				return "ok", tc.err
			}, "m")
			start, before := clk.Now(), clk.Instants()
			done := callOn(b, clk)
			clocktest.Run(clk, time.Second)
			r := await(t, done)
			if !errors.Is(r.err, tc.err) {
				t.Fatalf("err = %v, want %v", r.err, tc.err)
			}
			if tc.wait > 0 {
				if got := landed.Sub(start); got != legs+tc.wait {
					t.Fatalf("the read landed %v into the call, want legs + read, %v", got, legs+tc.wait)
				}
			}
			if got := r.at.Sub(start); got != legs+tc.wait {
				t.Fatalf("call returned %v after it started, want %v", got, legs+tc.wait)
			}
			if got := clk.Instants() - before; got != 1 {
				t.Fatalf("call fired %d instants, want 1", got)
			}
		})
	}
}

// TestReadDeregisteredDuringTheLegs: a read method's instance that leaves
// while a call to it is in flight fails the call with ErrUnavailable, and
// the answer its handler computed is dropped. The call learns it when it
// wakes: at the legs' end if the handler waits on nothing, at the end of
// the read that rode the legs if it reads.
func TestReadDeregisteredDuringTheLegs(t *testing.T) {
	const legs = 2 * defaultCallLatency
	for _, tc := range []struct {
		name string
		wait time.Duration
	}{
		{"no wait", 0},
		{"read", readLatency},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			t.Cleanup(clk.Close)
			b := NewBus(clk)
			reg := b.Register("api", "a", func(ctx context.Context, _ string, _ any) (any, error) {
				clock.Settle(ctx, clk, tc.wait)
				return "ok", nil
			}, "m")
			start := clk.Now()
			done := callOn(b, clk)
			clocktest.Run(clk, defaultCallLatency)
			reg.Deregister()
			clocktest.Run(clk, time.Second)
			r := await(t, done)
			if !errors.Is(r.err, ErrUnavailable) {
				t.Fatalf("err = %v, want ErrUnavailable", r.err)
			}
			if got := r.at.Sub(start); got != legs+tc.wait {
				t.Fatalf("call failed %v after it started, want %v", got, legs+tc.wait)
			}
		})
	}
}

// TestOwedLatencyRidesACall: what the caller's context already owes is
// paid in the call's one sleep, on either path, and never twice.
func TestOwedLatencyRidesACall(t *testing.T) {
	const legs, owed = 2 * defaultCallLatency, 3 * time.Millisecond
	for _, tc := range []struct {
		name  string
		reads []string
	}{
		{"default path", nil},
		{"read method", []string{"m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			t.Cleanup(clk.Close)
			b := NewBus(clk)
			var landed time.Time
			b.Register("api", "a", func(ctx context.Context, _ string, _ any) (any, error) {
				clock.Settle(ctx, clk, readLatency)
				landed = clk.Now()
				return "ok", nil
			}, tc.reads...)
			ctx := clock.Owe(context.Background(), owed)
			start, before := clk.Now(), clk.Instants()
			done := make(chan callResult, 1)
			go func() {
				_, err := b.Call(ctx, "api", "m", nil)
				done <- callResult{at: clk.Now(), err: err}
			}()
			clocktest.Run(clk, time.Second)
			r := await(t, done)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if got := landed.Sub(start); got != owed+legs+readLatency {
				t.Fatalf("the read landed %v into the call, want %v", got, owed+legs+readLatency)
			}
			if got := r.at.Sub(start); got != owed+legs+readLatency {
				t.Fatalf("call returned %v after it started, want %v", got, owed+legs+readLatency)
			}
			instants := uint64(2) // the owed latency and the legs, then the read
			if tc.reads != nil {
				instants = 1
			}
			if got := clk.Instants() - before; got != instants {
				t.Fatalf("call fired %d instants, want %d", got, instants)
			}
			if got := clock.Owed(ctx); got != 0 {
				t.Fatalf("the caller's context still owes %v", got)
			}
		})
	}
}

// TestConcurrentCalls: calls from many goroutines at once, half of them
// through an instance that serves "m" as a read method.
func TestConcurrentCalls(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	b.Register("api", "a", echoHandler("a"))
	b.Register("api", "b", echoHandler("b"), "m")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Call(context.Background(), "api", "m", i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWaitHealthyWakesOnRegistration: WaitHealthy blocks until the
// awaited services register, waking on the registration event itself
// (the platform-boot readiness signal that replaced the sleep loop).
func TestWaitHealthyWakesOnRegistration(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()

	done := make(chan bool, 1)
	go func() { done <- b.WaitHealthy(time.Minute, 1, "api", "lcm") }()

	// Registrations arrive a little apart; the waiter must not return
	// until both services are up.
	clk.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitHealthy returned before any registration")
	default:
	}
	b.Register("api", "a0", echoHandler("a0"))
	clk.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitHealthy returned with lcm still missing")
	default:
	}
	b.Register("lcm", "l0", echoHandler("l0"))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitHealthy = false with both services registered")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitHealthy never woke after registration")
	}
}

// TestWaitHealthyTimesOut: with a service missing, WaitHealthy returns
// false once the (virtual) deadline passes.
func TestWaitHealthyTimesOut(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	b.Register("api", "a0", echoHandler("a0"))
	if b.WaitHealthy(200*time.Millisecond, 1, "api", "never") {
		t.Fatal("WaitHealthy = true for an unregistered service")
	}
}

// TestWaitHealthySeesRecovery: an instance crashing to zero healthy and
// a restarted one registering wakes a waiter.
func TestWaitHealthySeesRecovery(t *testing.T) {
	b, clk := newTestBus()
	defer clk.Close()
	b.Register("api", "a0", echoHandler("a0")).Deregister()
	done := make(chan bool, 1)
	go func() { done <- b.WaitHealthy(time.Minute, 1, "api") }()
	clk.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitHealthy returned while instance down")
	default:
	}
	b.Register("api", "a1", echoHandler("a1"))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitHealthy = false after recovery")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitHealthy never woke after the restart registered")
	}
}
