package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/kube"
	"repro/internal/metrics"
	"repro/internal/mongo"
	"repro/internal/raft"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/trace"
)

// probe is the result of timing a fixed number of calls into one
// layer's public API on an instance of its own.
type probe struct {
	value float64 // in the metric's unit
	calls int
	// wallNs and cpuNs are the cost of one call, for the attribution table.
	wallNs, cpuNs float64
	// onSim marks a probe whose calls wait on a clock.NewSim: its CPU
	// includes the clock's idle-advance polling for those instants.
	onSim bool
}

func (p probe) simClock() probe {
	p.onSim = true
	return p
}

// cost is what a measured loop spent per call.
type cost struct {
	wallNs, cpuNs, allocs float64
	calls                 int
}

// measure runs fn, which makes `calls` calls, and returns the per-call
// wall time, CPU time and allocations.
func measure(calls int, fn func() error) (cost, error) {
	real := clock.NewReal()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu0, err := cpuTime()
	if err != nil {
		return cost{}, err
	}
	start := real.Now()
	if err := fn(); err != nil {
		return cost{}, err
	}
	wall := real.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return cost{}, err
	}
	runtime.ReadMemStats(&ms)
	n := float64(calls)
	return cost{wallNs: float64(wall) / n, cpuNs: float64(cpu1-cpu0) / n, allocs: float64(ms.Mallocs-mallocs) / n, calls: calls}, nil
}

// measureEach measures `calls` consecutive calls of one(i).
func measureEach(calls int, one func(i int) error) (cost, error) {
	return measure(calls, func() error {
		for i := 0; i < calls; i++ {
			if err := one(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// as converts a cost's wall time per call to a metric value.
func (c cost) as(unit time.Duration) probe {
	return probe{value: c.wallNs / float64(unit), calls: c.calls, wallNs: c.wallNs, cpuNs: c.cpuNs}
}

func (c cost) asAllocs() probe {
	return probe{value: c.allocs, calls: c.calls, wallNs: c.wallNs, cpuNs: c.cpuNs}
}

// probeKeys is the store probes' population.
const probeKeys = 4096

// runProbes runs every isolated probe. Call counts are fixed, so the
// probes do identical work on every commit.
func runProbes() (map[string]probe, error) {
	out := map[string]probe{}
	for _, group := range []func(map[string]probe) error{
		probeHarness, probeClock, probeStore, probeRaft, probeMongo, probeRPC, probeKube, probeTelemetry,
	} {
		if err := group(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeHarness prices the harness's own op span, the unit of
// bench.trace_overhead_share.
func probeHarness(out map[string]probe) error {
	const calls = 100000
	w := newStopwatch()
	w.attach(clock.NewManual())
	log := newOpLog(0, calls)
	c, err := measureEach(calls, func(int) error {
		return log.time(w, "op", func() error { return nil })
	})
	out["bench.span_ns"] = c.as(time.Nanosecond)
	return err
}

func probeClock(out map[string]probe) error {
	// One sleeper: every Sleep is one virtual instant, and the wall time
	// it takes is what the sim clock charges per instant.
	sim := clock.NewSim()
	c, err := measureEach(200, func(int) error {
		sim.Sleep(time.Millisecond)
		return nil
	})
	sim.Close()
	if err != nil {
		return err
	}
	out["clock.sleep_wall_us"] = c.as(time.Microsecond)

	const timers = 20000
	manual := clock.NewManual()
	defer manual.Close()
	c, err = measure(timers, func() error {
		ts := make([]clock.Timer, timers)
		for i := range ts {
			ts[i] = manual.NewTimer(time.Duration(i+1) * time.Microsecond)
		}
		manual.Advance(timers * time.Microsecond)
		for _, t := range ts {
			<-t.C()
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["clock.timer_fire_ns"] = c.as(time.Nanosecond)

	const funcs = 2000
	c, err = measure(funcs, func() error {
		var wg sync.WaitGroup
		wg.Add(funcs)
		for i := 0; i < funcs; i++ {
			manual.AfterFunc(time.Duration(i+1)*time.Microsecond, wg.Done)
		}
		manual.Advance(funcs * time.Microsecond)
		wg.Wait()
		return nil
	})
	out["clock.afterfunc_allocs"] = c.asAllocs()
	return err
}

func probeStore(out map[string]probe) error {
	eng := store.NewEngine(store.Config{})
	defer eng.Close()
	key := func(i int) string { return fmt.Sprintf("/p/%02d/k%04d", i%64, i/64%64) } // 64 keys per /p/NN/ prefix
	value := string(make([]byte, valueBytes))
	for i := 0; i < probeKeys; i++ {
		if _, err := eng.Put(key(i), value); err != nil {
			return err
		}
	}

	const commits = 20000
	c, err := measureEach(commits, func(i int) error {
		_, err := eng.Commit([]store.Op{{Kind: store.OpPut, Key: key(i), Value: value}})
		return err
	})
	if err != nil {
		return err
	}
	out["store.commit_ns"], out["store.commit_allocs"] = c.as(time.Nanosecond), c.asAllocs()

	ops := make([]store.Op, 8)
	c, err = measureEach(commits, func(i int) error {
		for k := range ops {
			ops[k] = store.Op{Kind: store.OpPut, Key: key(i*8 + k), Value: value}
		}
		_, err := eng.Commit(ops)
		return err
	})
	if err != nil {
		return err
	}
	out["store.commit8_ns"] = c.as(time.Nanosecond)

	c, err = measureEach(200000, func(i int) error {
		if _, _, ok := eng.Get(key(i)); !ok {
			return fmt.Errorf("store probe: key %s missing", key(i))
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["store.get_ns"] = c.as(time.Nanosecond)

	c, err = measureEach(2000, func(i int) error {
		kvs, _, err := eng.Scan(fmt.Sprintf("/p/%02d/", i%64))
		if err != nil || len(kvs) != probeKeys/64 {
			return fmt.Errorf("store probe: scan returned %d keys: %v", len(kvs), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["store.scan64_us"] = c.as(time.Microsecond)

	const fanoutPuts, watchers = 2000, 16
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		ch, cancel, err := eng.Watch("/p/00/")
		if err != nil {
			return err
		}
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < fanoutPuts; n++ {
				if _, open := <-ch; !open {
					return
				}
			}
		}()
	}
	c, err = measure(fanoutPuts, func() error {
		for i := 0; i < fanoutPuts; i++ {
			if _, err := eng.Put(key(0), value); err != nil {
				return err
			}
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	out["store.watch_fanout16_us"] = c.as(time.Microsecond)

	c, err = measureEach(20, func(int) error {
		replica := store.NewEngine(store.Config{ExternalRevs: true})
		defer replica.Close()
		return replica.Import(eng.Export(), 0)
	})
	out["store.export_import_ms"] = c.as(time.Millisecond)
	return err
}

func probeRaft(out map[string]probe) error {
	sim := clock.NewSim()
	defer sim.Close()
	cluster := raft.NewCluster(etcdReplicas, raft.DefaultConfig(sim))
	defer cluster.Stop()
	leader := cluster.WaitLeader(10 * time.Second)
	if leader == nil {
		return fmt.Errorf("raft probe: no leader")
	}

	// Fewer proposals than an apply channel buffers, so the followers'
	// channels need no drainer.
	const proposals = 100
	cmd := make([]byte, valueBytes)
	vstart := sim.Now()
	c, err := measureEach(proposals, func(int) error {
		idx, _, err := leader.Propose(cmd)
		if err != nil {
			return fmt.Errorf("raft probe: propose: %w", err)
		}
		for a := range leader.ApplyCh() {
			if a.Entry.Index >= idx {
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["raft.propose_apply_wall_us"] = c.as(time.Microsecond).simClock()
	out["raft.propose_apply_virtual_ms"] = probe{value: millis(sim.Since(vstart)) / proposals, calls: proposals}

	c, err = measureEach(20000, func(int) error {
		_, err := leader.ReadIndex(0)
		return err
	})
	if err != nil {
		return fmt.Errorf("raft probe: read index: %w", err)
	}
	out["raft.lease_readindex_ns"] = c.as(time.Nanosecond)

	const failovers = 3
	var virtual time.Duration
	for i := 0; i < failovers; i++ {
		old := leader.ID()
		start := sim.Now()
		cluster.Crash(old)
		if leader = cluster.WaitLeader(10 * time.Second); leader == nil {
			return fmt.Errorf("raft probe: no leader after crashing node %d", old)
		}
		virtual += sim.Since(start)
		cluster.Restart(old)
		sim.Sleep(time.Second) // let the restarted node rejoin before the next crash
	}
	out["raft.failover_virtual_ms"] = probe{value: millis(virtual) / failovers, calls: failovers}
	return nil
}

// pump advances a manual clock as fast as it can until stopped, so a
// layer that charges modeled latency to its clock (every mongo call
// sleeps) returns after a goroutine hand-off instead of a sim-clock
// instant, and the probe times the layer's own work.
func pump(manual *clock.Sim) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				manual.Advance(time.Second)
				runtime.Gosched() // let the caller take the clock's lock
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func probeMongo(out map[string]probe) error {
	manual := clock.NewManual()
	defer manual.Close()
	defer pump(manual)()
	db := mongo.New(manual)
	defer db.Close()
	coll := db.Collection("probe")
	id := func(i int) string { return fmt.Sprintf("job-%05d", i%docs) }

	// The pump's spinning is not mongo's CPU: charge the caller's wall
	// time as the call's CPU cost.
	callerCost := func(c cost) probe {
		p := c.as(time.Microsecond)
		p.cpuNs = c.wallNs
		return p
	}

	c, err := measureEach(docs, func(i int) error {
		return coll.InsertOne(mongo.Document{"_id": id(i), "tenant": "t", "state": "QUEUED", "attempts": 0})
	})
	if err != nil {
		return err
	}
	out["mongo.insert_us"] = callerCost(c)

	c, err = measureEach(5000, func(i int) error {
		_, err := coll.FindOne(mongo.Filter{"_id": id(i)})
		return err
	})
	if err != nil {
		return err
	}
	out["mongo.find_one_us"] = callerCost(c)

	c, err = measureEach(5000, func(i int) error {
		_, err := coll.UpdateOne(mongo.Filter{"_id": id(i)}, mongo.Document{"state": "PROCESSING"})
		return err
	})
	out["mongo.update_one_us"] = callerCost(c)
	return err
}

// docs is the mongo probes' collection size.
const docs = 1000

func probeRPC(out map[string]probe) error {
	sim := clock.NewSim()
	defer sim.Close()
	bus := rpc.NewBus(sim)
	bus.Register("echo", "echo-0", func(_ context.Context, _ string, req any) (any, error) { return req, nil })
	c, err := measureEach(100, func(i int) error {
		_, err := bus.Call(context.Background(), "echo", "Echo", i)
		return err
	})
	out["rpc.call_wall_us"], out["rpc.call_allocs"] = c.as(time.Microsecond).simClock(), c.asAllocs()
	return err
}

func probeKube(out map[string]probe) error {
	// A manual clock: placement and pod creation are decided in the
	// calling goroutine, and nothing the cluster schedules ever fires.
	manual := clock.NewManual()
	defer manual.Close()
	nodes := make([]kube.NodeSpec, 64)
	for i := range nodes {
		nodes[i] = kube.NodeSpec{Name: fmt.Sprintf("node-%02d", i), GPUs: gpusPerNode, GPUType: "K80"}
	}
	cluster := kube.NewCluster(kube.Config{Clock: manual}, nodes...)
	defer cluster.Stop()

	c, err := measureEach(3000, func(i int) error {
		name := fmt.Sprintf("gang-%d", i)
		_, err := cluster.SubmitGang(kube.GangSpec{Name: name, Tenant: "t", Members: 1 << (i % 3), GPUsPerMember: 1})
		cluster.CancelGang(name)
		return err
	})
	if err != nil {
		return err
	}
	out["kube.place_gang_us"] = c.as(time.Microsecond)

	c, err = measureEach(3000, func(i int) error {
		pod, err := cluster.CreatePod(kube.PodSpec{Name: fmt.Sprintf("pod-%d", i), Tenant: "t", GPUs: 1,
			Containers: []kube.ContainerSpec{{Name: "main", Image: "probe"}}})
		if err != nil {
			return err
		}
		return cluster.DeletePod(pod.Name())
	})
	out["kube.create_pod_us"] = c.as(time.Microsecond)
	return err
}

func probeTelemetry(out map[string]probe) error {
	manual := clock.NewManual()
	defer manual.Close()
	rec := trace.NewRecorder(manual)
	root := rec.Root("probe-job")
	c, err := measureEach(100000, func(int) error {
		rec.StartSpan(root.Context(), "op").End()
		return nil
	})
	if err != nil {
		return err
	}
	out["trace.span_ns"] = c.as(time.Nanosecond)

	// A job-shaped tree: 16 phase spans of 15 steps each.
	job := rec.Root("probe-tree")
	for i := 0; i < 16; i++ {
		phase := rec.StartSpan(job.Context(), fmt.Sprintf("phase-%d", i))
		phase.SetPhase(jobPhases[i%len(jobPhases)])
		for k := 0; k < 15; k++ {
			manual.Advance(time.Millisecond)
			rec.StartSpan(phase.Context(), "step").End()
		}
		phase.End()
	}
	job.End()
	tree := rec.Tree("probe-tree")
	c, err = measureEach(500, func(int) error {
		if trace.CriticalPath(tree).Total <= 0 {
			return fmt.Errorf("trace probe: empty critical path")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["trace.critical_path_us"] = c.as(time.Microsecond)

	reg := metrics.NewRegistry()
	const samples = 100000
	c, err = measureEach(samples, func(i int) error {
		reg.Observe("probe_latency", time.Duration(i)*time.Microsecond, "status")
		return nil
	})
	if err != nil {
		return err
	}
	out["metrics.observe_ns"] = c.as(time.Nanosecond)
	c, err = measureEach(5, func(int) error {
		if reg.Export().Histograms["probe_latency{status}"].Count != samples {
			return fmt.Errorf("metrics probe: export lost samples")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["metrics.export_100k_us"] = c.as(time.Microsecond)

	env := events.LearnerStatus("job-00001", types.StatusUpdate{Learner: 1, Status: types.LearnerTraining,
		Time: manual.Now(), Detail: "progress: 1000 images"}).WithTrace("job-00001", "00000000deadbeef")
	raw, err := env.Encode()
	if err != nil {
		return err
	}
	c, err = measureEach(100000, func(int) error {
		_, err := env.Encode()
		return err
	})
	if err != nil {
		return err
	}
	out["events.encode_ns"] = c.as(time.Nanosecond)
	c, err = measureEach(100000, func(int) error {
		if _, ok := events.Decode(raw); !ok {
			return fmt.Errorf("events probe: envelope did not decode")
		}
		return nil
	})
	out["events.decode_ns"] = c.as(time.Nanosecond)
	return err
}
