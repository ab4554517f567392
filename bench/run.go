package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
)

// setupRepeats is how many times a run builds its system: once for the
// measured phases and then again, torn down at once, so setup_s is a
// median and not one cold sample.
const setupRepeats = 5

// system is one workload's system under test, built and ready.
type system interface {
	// simClock is the virtual clock the system runs on.
	simClock() clock.Clock
	// timed drives the measured work and reports how many ops it was.
	timed(r *runner) (ops int)
	// verify checks every output of the timed phase.
	verify(r *runner)
	// counters snapshots the counters the layers export.
	counters() map[string]float64
	// layers derives the workload's per-layer metrics from the spans and
	// the counter deltas of the timed phase.
	layers(r *runner, delta map[string]float64, ops int)
	close()
}

func build(in *inputs) (system, error) {
	switch in.Workload {
	case wlFleetSteady, wlFleetFaults:
		return buildFleet(in)
	default:
		return buildMeta(in)
	}
}

// runner carries one run's measurement state.
type runner struct {
	watch *stopwatch
	tree  *spanTree
	phase int // id of the open phase span; op spans hang under it

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	values map[string]float64 // metric name → value
	counts map[string]int     // metric name → samples behind the value
}

// check records one correctness check. Every op is one check, and every
// verify-phase assertion is one more; failed/attempted is failed_share.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records a metric value and the sample count behind it.
func (r *runner) set(name string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = value
	r.counts[name] = samples
}

// setPercentile records the p-th percentile of a duration sample.
func (r *runner) setPercentile(name string, ds []time.Duration, p float64, conv func(time.Duration) float64) {
	r.set(name, percentile(durationsTo(ds, conv), p), len(ds))
}

// setRequests records the client-observed wall latency of the timed
// phase's requests: a KV call in meta-*, a Client API call in fleet-*.
func (r *runner) setRequests(requests []span) {
	r.setPercentile("request_wall_us_p50", wallsOf(requests), 50, micros)
	r.setPercentile("request_wall_us_p90", wallsOf(requests), 90, micros)
}

// runResult is one workload run as the result files keep it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Inputs    inputsEcho             `json:"inputs"`
	Env       environment            `json:"env"`
	TimedWall float64                `json:"timed_wall_s"`
	// Attribution is the traced run's per-layer cost estimate.
	Attribution []attributionRow `json:"attribution,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples the value summarises (0 = a single reading).
	N int `json:"n,omitempty"`
}

// contractLine is the last line of standard output, exactly the keys the
// driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// processMeter reads the per-process costs around the timed phase.
type processMeter struct {
	cpu     time.Duration
	mallocs uint64
	gcPause uint64
}

func readMeter() (processMeter, error) {
	cpu, err := cpuTime()
	if err != nil {
		return processMeter{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processMeter{cpu: cpu, mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs}, nil
}

// sampler tracks goroutine and heap high-water marks during a traced
// run. It is the one thing a traced timed phase does that an untraced
// one does not.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines int
	heapInuse  uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := clock.NewReal().NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if n := runtime.NumGoroutine(); n > s.goroutines {
			s.goroutines = n
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > s.heapInuse {
			s.heapInuse = ms.HeapInuse
		}
		select {
		case <-s.stop:
			return
		case <-tick.C():
		}
	}
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spanPath string // span dump of a traced run ("" = none)
}

// runWorkload is one whole run: set-up, timed phase, verify, repeated
// set-ups, and for a traced run the counters, probes and attribution.
func runWorkload(cfg runConfig, human io.Writer) (*runResult, error) {
	env, err := readEnvironment()
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(env.GOMAXPROCS)
	in, err := generate(cfg.workload, cfg.seed, cfg.seconds, env.GOMAXPROCS)
	if err != nil {
		return nil, err
	}

	r := &runner{watch: newStopwatch(), tree: &spanTree{},
		values: map[string]float64{}, counts: map[string]int{}}
	root := r.tree.open(r.watch, 0, "workload:"+in.Workload)

	setupSpan := r.tree.open(r.watch, root, "setup")
	sys, err := build(in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{r.tree.close(r.watch, setupSpan).wall().Seconds()}
	r.watch.attach(sys.simClock())

	var before map[string]float64
	var smp *sampler
	if cfg.traced {
		before = sys.counters()
		smp = startSampler()
	}
	m0, err := readMeter()
	if err != nil {
		return nil, err
	}
	r.phase = r.tree.open(r.watch, root, "timed")
	ops := sys.timed(r)
	timed := r.tree.close(r.watch, r.phase)
	m1, err := readMeter()
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		smp.finish()
	}

	r.phase = r.tree.open(r.watch, root, "verify")
	sys.verify(r)
	r.tree.close(r.watch, r.phase)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	cpu := m1.cpu - m0.cpu
	r.set("ops_per_wall_s", ratio(float64(ops), timed.wall().Seconds()), ops)
	r.set("makespan_virtual_s", timed.virtual().Seconds(), 0)
	r.set("cpu_ms_per_op", ratio(millis(cpu), float64(ops)), ops)
	r.set("allocs_per_op", ratio(float64(m1.mallocs-m0.mallocs), float64(ops)), ops)
	r.set("peak_rss_mb", rss, 0)

	res := &runResult{Workload: in.Workload, Seed: in.Seed, Traced: cfg.traced, Inputs: in.echo(),
		Env: env, TimedWall: timed.wall().Seconds()}
	if cfg.traced {
		delta := sys.counters()
		for k, v := range delta {
			delta[k] = v - before[k]
		}
		sys.layers(r, delta, ops)
		r.set("clock.idle_wall_share", 1-ratio(cpu.Seconds(), timed.wall().Seconds()), 0)
		r.set("runtime.goroutines_peak", float64(smp.goroutines), 0)
		r.set("runtime.heap_inuse_peak_mb", float64(smp.heapInuse)/(1<<20), 0)
		r.set("runtime.gc_pause_total_ms", float64(m1.gcPause-m0.gcPause)/1e6, 0)
		r.set("failed_share", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	}
	r.tree.close(r.watch, root)
	sys.close()

	for len(setups) < setupRepeats {
		t0 := r.watch.wall()
		again, err := build(in)
		if err != nil {
			return nil, fmt.Errorf("repeated set-up: %w", err)
		}
		setups = append(setups, (r.watch.wall() - t0).Seconds())
		again.close()
	}
	r.set("setup_s", median(setups), len(setups))

	if cfg.traced {
		probes, err := runProbes()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for name, p := range probes {
			r.set(name, p.value, p.calls)
		}
		nspans := len(r.tree.spans)
		r.set("bench.trace_overhead_share",
			ratio(float64(nspans)*probes["bench.span_ns"].value/1e9, timed.wall().Seconds()), nspans)
		res.Attribution = attribute(in, r.values, probes, ops, cpu, timed.wall())
	}

	printRun(human, r.result(res, cfg.traced))
	if cfg.spanPath != "" {
		if err := writeJSON(cfg.spanPath, r.tree.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// result completes res with the runner's checks and the metrics a run of
// this kind reports: every catalogued name, 0 where the workload does not
// produce it.
func (r *runner) result(res *runResult, traced bool) *runResult {
	res.Correct = r.failed == 0
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Metrics = map[string]metricValue{}
	for _, def := range catalogueFor(traced) {
		res.Metrics[def.Name] = metricValue{Value: r.values[def.Name], Unit: def.Unit, N: r.counts[def.Name]}
	}
	return res
}

// contract renders the run as the driver's last line.
func (res *runResult) contract() contractLine {
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractMetric{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}
