package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
	"time"
)

// environment is what a result records about where it was measured.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load1"`
	// Noisy flags a run started with the 1-minute load average above
	// half the cores: its wall-clock numbers deserve suspicion.
	Noisy bool `json:"noisy"`
	// Delays are the latencies the system injects on its virtual clock
	// at product defaults; wall latencies are these × the sim clock's
	// wall cost per instant, not a real network.
	Delays map[string]string `json:"injected_delays"`
	Modes  string            `json:"modes"`
}

// maxClients caps GOMAXPROCS and the closed-loop client count.
const maxClients = 4

func readEnvironment() (environment, error) {
	load, err := loadAvg1()
	if err != nil {
		return environment{}, err
	}
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), Load1: load,
		Delays: map[string]string{"raft_message_one_way": "1ms", "rpc_call_one_way": "500us",
			"raft_heartbeat": "50ms", "raft_election_timeout": "150-300ms", "status_poll": pollInterval.String()},
		Modes: "leaseread, batch, pipeline, watch control plane, tracing on, 3 etcd replicas",
	}
	if env.GOMAXPROCS > maxClients {
		env.GOMAXPROCS = maxClients
	}
	env.Noisy = load > 0.5*float64(env.CPUs)
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env, nil
}

// attributionRow estimates one layer's share of a workload's cost:
// calls per op (counted) × CPU per call (probed). A layer's wall share
// is its CPU time over the wall time; the wall time in which no
// goroutine ran is the clock's row.
type attributionRow struct {
	Layer       string  `json:"layer"`
	CallsPerOp  float64 `json:"calls_per_op"`
	CPUNsPerOne float64 `json:"cpu_ns_per_call"`
	CPUShare    float64 `json:"cpu_share"`
	WallShare   float64 `json:"wall_share"`
}

func attribute(in *inputs, v map[string]float64, probes map[string]probe, ops int, cpu, wall time.Duration) []attributionRow {
	cpuPerOp, wallPerOp := ratio(float64(cpu), float64(ops)), ratio(float64(wall), float64(ops))
	rows := []attributionRow{{Layer: "clock: no goroutine running", WallShare: v["clock.idle_wall_share"]}}
	// The clock exports no instant count, so estimate it: the idle wall
	// time ÷ the probed wall cost of one instant. Each instant also
	// costs CPU (the idle-advance loop polls), which is the second row.
	instant := probes["clock.sleep_wall_us"]
	instants := ratio(wallPerOp*v["clock.idle_wall_share"], instant.wallNs)
	rows = append(rows, attributionRow{Layer: "clock: idle-advance polling (est. instants)", CallsPerOp: instants,
		CPUNsPerOne: instant.cpuNs,
		CPUShare:    ratio(instants*instant.cpuNs, cpuPerOp),
		WallShare:   ratio(instants*instant.cpuNs, wallPerOp)})
	add := func(layer string, calls float64, probeNames ...string) {
		var ns float64
		for _, name := range probeNames {
			p := probes[name]
			// A probe on a sim clock also paid the clock's polling for
			// the instants it waited through; that CPU is the row above.
			own := p.cpuNs
			if p.onSim {
				own = math.Max(0, own-ratio(p.wallNs, instant.wallNs)*instant.cpuNs)
			}
			ns += own
		}
		rows = append(rows, attributionRow{Layer: layer, CallsPerOp: calls, CPUNsPerOne: ns,
			CPUShare: ratio(calls*ns, cpuPerOp), WallShare: ratio(calls*ns, wallPerOp)})
	}
	var writes, reads float64
	if len(in.Jobs) > 0 {
		writes = v["etcd.puts_per_job"] + v["etcd.deletes_per_job"]
		reads = v["etcd.gets_per_job"] + v["etcd.ranges_per_job"]
		var pods float64
		for _, j := range in.Jobs {
			pods += float64(j.Learners+2) / float64(len(in.Jobs)) // learners + guardian + helper
		}
		add("rpc: Bus.Call", v["api.requests_per_job"], "rpc.call_wall_us")
		add("mongo: job-record update", v["mongo.writes_per_job"], "mongo.update_one_us")
		add("kube: gang placement", 1, "kube.place_gang_us")
		add("kube: pod create", pods, "kube.create_pod_us")
		add("trace: span", v["trace.spans_per_job"], "trace.span_ns")
		add("metrics: observe", v["api.requests_per_job"], "metrics.observe_ns")
		add("events: encode+decode", v["etcd.puts_per_job"], "events.encode_ns", "events.decode_ns")
	} else {
		for _, script := range in.Scripts {
			for _, op := range script {
				if len(op.writes()) > 0 {
					writes++
				} else {
					reads++
				}
			}
		}
		writes, reads = writes/float64(ops), reads/float64(ops)
		add("store: hub fan-out to the watcher", writes, "store.watch_fanout16_us")
	}
	add("raft: propose → apply", writes, "raft.propose_apply_wall_us")
	add("store: commit on 3 replicas", etcdReplicas*writes, "store.commit_ns")
	add("raft+store: lease read", reads, "raft.lease_readindex_ns", "store.get_ns")

	rest := attributionRow{Layer: "unattributed", CPUShare: 1, WallShare: 1}
	for _, row := range rows {
		rest.CPUShare -= row.CPUShare
		rest.WallShare -= row.WallShare
	}
	return append(rows, rest)
}

// printRun renders one run for a person: inputs, every metric with unit,
// direction, sample count and bound, failures, and the attribution.
func printRun(w io.Writer, res *runResult) {
	echo, _ := json.Marshal(res.Inputs)
	mode := "untraced: end-to-end metrics"
	if res.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "workload %s  seed %d  (%s)\n", res.Workload, res.Seed, mode)
	fmt.Fprintf(w, "env: commit %s, %s %s/%s, %d cpus, GOMAXPROCS %d, load1 %.2f%s\n", res.Env.Commit, res.Env.GoVersion,
		res.Env.GOOS, res.Env.GOARCH, res.Env.CPUs, res.Env.GOMAXPROCS, res.Env.Load1, map[bool]string{true: " NOISY", false: ""}[res.Env.Noisy])
	fmt.Fprintf(w, "modes: %s; injected delays: %v\n", res.Env.Modes, res.Env.Delays)
	fmt.Fprintf(w, "inputs: %s\n", echo)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tsamples\tbound\tsource")
	bounds, _ := readBounds() // shown when run from the repository root
	for _, def := range catalogueFor(res.Traced) {
		m := res.Metrics[def.Name]
		bound := "-"
		if b, ok := bounds[def.Name]; ok {
			bound = fmt.Sprintf("%.2f", b)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%s\t%s\n", def.Name, m.Value, def.Unit, def.Better, m.N, bound, def.Source)
	}
	tw.Flush()

	if len(res.Attribution) > 0 {
		fmt.Fprintf(w, "\nattribution for %s (calls/op counted × CPU/call probed; estimates):\n", res.Workload)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "layer\tcalls/op\tcpu ns/call\tcpu share\twall share")
		for _, row := range res.Attribution {
			fmt.Fprintf(tw, "%s\t%.2f\t%.0f\t%.4f\t%.4f\n", row.Layer, row.CallsPerOp, row.CPUNsPerOne, row.CPUShare, row.WallShare)
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultFile is what -out of the all-workloads command writes and what
// -compare reads: any number of runs.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// samples groups a file's untraced runs: workload → metric → values.
func (f *resultFile) samples() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		if run.Traced {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // spread wider than the bound: no call
)

type comparison struct {
	A, B    float64 // medians
	Diff    float64 // (B-A)/A, signed so that positive = worse
	Spread  float64 // the wider of the two quartile spreads
	Verdict string
}

// judge compares b against a for one metric. Worse by more than the
// bound is a regression; but when either side's own run-to-run spread
// exceeds the bound, the runs cannot resolve a difference that small.
// setupMetric is exempt from that: each value is already a median of
// builds, and only its shift gates (the driver's rule too).
func judge(def metricDef, bound float64, a, b []float64) comparison {
	c := comparison{A: median(a), B: median(b)}
	c.Diff = ratio(c.B-c.A, c.A)
	if def.Better == "higher" {
		c.Diff = -c.Diff
	}
	c.Spread = math.Max(quartileSpread(a), quartileSpread(b))
	switch {
	case c.Spread > bound && def.Name != setupMetric:
		c.Verdict = verdictUnresolved
	case c.Diff > bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compare judges every (workload, end-to-end metric) pair of two result
// files against BENCHMARK.json's bounds and reports whether all were ok.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	bounds, err := readBounds()
	if err != nil {
		return false, err
	}
	sa, sb := fa.samples(), fb.samples()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian %s\tmedian %s\tworse by\tspread\tbound\tverdict\n", pathA, pathB)
	allOK := true
	for _, wl := range workloadDefs {
		for _, def := range endToEnd {
			a, b := sa[wl.Name][def.Name], sb[wl.Name][def.Name]
			bound, bounded := bounds[def.Name]
			if len(a) == 0 || len(b) == 0 || !bounded {
				return false, fmt.Errorf("%s/%s: missing from a result file or from %s", wl.Name, def.Name, benchmarkPath)
			}
			c := judge(def, bound, a, b)
			allOK = allOK && c.Verdict == verdictOK
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, def.Name, c.A, c.B, 100*c.Diff, 100*c.Spread, 100*bound, c.Verdict)
		}
	}
	tw.Flush()
	return allOK, nil
}

// benchmarkJSON mirrors BENCHMARK.json, keys in the contract's order.
// Only end_to_end entries carry a bound.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// readBounds returns the regression bounds BENCHMARK.json declares,
// their one home.
func readBounds() (map[string]float64, error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// Calibration: bound = max(minBound, 2 × observed relative range,
// 3 × observed quartile spread), rounded up to a whole percent and capped
// at the contract's maxBound. The third term keeps every spread the
// driver will see under a third of its bound.
const (
	minBound = 0.10
	maxBound = 0.25
)

func calibratedBound(relativeRange, spread float64) float64 {
	b := math.Max(minBound, math.Max(2*relativeRange, 3*spread))
	return math.Ceil(math.Min(b, maxBound)*100-1e-9) / 100
}

// benchmarkFile renders the catalogue as BENCHMARK.json with the given
// end-to-end bounds.
func benchmarkFile(bounds map[string]float64) benchmarkJSON {
	bj := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"},
		RunSeconds: referenceSeconds, Workloads: workloadDefs, PerLayer: perLayer}
	for _, def := range endToEnd {
		def.Bound = bounds[def.Name]
		bj.EndToEnd = append(bj.EndToEnd, def)
	}
	return bj
}

// calibrate rewrites BENCHMARK.json from the catalogue with each
// end-to-end bound set from repeated runs: the widest relative range and
// quartile spread the metric showed on any workload.
func calibrate(w io.Writer, runs *resultFile) error {
	samples := runs.samples()
	bounds := map[string]float64{}
	for _, def := range endToEnd {
		var widest, spread float64
		var where string
		for _, wl := range workloadDefs {
			if rr := relRange(samples[wl.Name][def.Name]); rr > widest {
				widest, where = rr, wl.Name
			}
			spread = math.Max(spread, quartileSpread(samples[wl.Name][def.Name]))
		}
		bounds[def.Name] = calibratedBound(widest, spread)
		if def.Name == setupMetric {
			bounds[def.Name] = maxBound // the contract gives set-up time the largest bound
		}
		fmt.Fprintf(w, "%-22s widest relative range %.3f (%s), widest quartile spread %.3f → bound %.2f\n", def.Name, widest, where, spread, bounds[def.Name])
	}
	return writeJSON(benchmarkPath, benchmarkFile(bounds))
}
