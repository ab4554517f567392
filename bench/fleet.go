package main

import (
	"fmt"
	"strings"
	"time"

	dlaas "repro"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/types"
	"repro/internal/trace"
)

// Virtual-time limits. They are generous: hitting one is a failure of
// the system, not a tuning knob.
const (
	jobDeadline      = time.Hour
	recoveryDeadline = 5 * time.Minute
	pollInterval     = 250 * time.Millisecond // Client.WaitForState's cadence
)

// fleetSystem is a whole platform at product defaults: lease reads,
// batched writes, pipelined replication, watch control plane, tracing
// on, 3 etcd replicas, default transport and rpc delays.
type fleetSystem struct {
	in   *inputs
	p    *dlaas.Platform
	data map[string]dlaas.DataRef // tenant → staged dataset
	out  map[string]dlaas.DataRef // tenant → results bucket

	ids        []string        // job IDs, in submission order
	history    [][]dlaas.Event // each job's event history, read by verify
	log        *opLog          // the one client's API calls
	faults     *opLog          // one span per injected fault
	recoveries map[string][]time.Duration
}

func buildFleet(in *inputs) (system, error) {
	nodes := in.Sizes.SteadyNodes
	if in.Workload == wlFleetFaults {
		nodes = in.Sizes.FaultsNodes
	}
	p, err := dlaas.New(dlaas.Options{Nodes: nodes, GPUsPerNode: gpusPerNode})
	if err != nil {
		return nil, err
	}
	f := &fleetSystem{in: in, p: p, data: map[string]dlaas.DataRef{}, out: map[string]dlaas.DataRef{},
		recoveries: map[string][]time.Duration{}}
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("tenant-%d", t)
		creds := dlaas.Credentials{AccessKey: tenant, SecretKey: tenant + "-secret"}
		if f.data[tenant], err = p.CreateDataset(tenant+"-data", "train.rec", datasetBytes, creds); err != nil {
			p.Close()
			return nil, err
		}
		if f.out[tenant], err = p.CreateResultsBucket(tenant+"-results", creds); err != nil {
			p.Close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleetSystem) simClock() clock.Clock { return f.p.Clock() }
func (f *fleetSystem) close()                { f.p.Close() }

func (f *fleetSystem) manifest(j jobSpec) *dlaas.Manifest {
	return &dlaas.Manifest{
		Name:               j.Name,
		Framework:          j.Framework,
		Model:              j.Model,
		Learners:           j.Learners,
		GPUsPerLearner:     1,
		BatchPerGPU:        32,
		Epochs:             1,
		DatasetImages:      j.Images,
		TrainingData:       f.data[j.Tenant],
		Results:            f.out[j.Tenant],
		CheckpointInterval: time.Duration(j.CheckpointSecs) * time.Second,
	}
}

// timed is one closed-loop client: submit every job back to back, (for
// fleet-faults) bring them to PROCESSING and inject the faults, then
// await each job's COMPLETED.
func (f *fleetSystem) timed(r *runner) int {
	f.log = newOpLog(r.phase, 4096)
	f.faults = newOpLog(r.phase, len(f.in.Faults))
	f.ids = make([]string, len(f.in.Jobs))
	f.history = make([][]dlaas.Event, len(f.in.Jobs))
	for i, j := range f.in.Jobs {
		client := f.p.Client(j.Tenant)
		err := f.log.time(r.watch, "submit", func() error {
			var err error
			f.ids[i], err = client.Submit(f.manifest(j))
			return err
		})
		if err != nil {
			r.check(false, "submit %s: %v", j.Name, err)
		}
	}
	if len(f.in.Faults) > 0 {
		for i := range f.in.Jobs {
			f.await(r, i, dlaas.StateProcessing, false)
		}
		f.injectFaults(r)
	}
	for i := range f.in.Jobs {
		f.await(r, i, dlaas.StateCompleted, true)
	}
	r.tree.merge(f.log)
	r.tree.merge(f.faults)
	r.setRequests(f.log.spans)
	return len(f.in.Jobs)
}

// await polls job i's Status at Client.WaitForState's cadence, timing
// each call, until it reaches want. With final set the outcome is the
// job's one op check.
func (f *fleetSystem) await(r *runner, i int, want dlaas.JobState, final bool) {
	if f.ids[i] == "" {
		return // the failed Submit is already counted
	}
	j := f.in.Jobs[i]
	client := f.p.Client(j.Tenant)
	clk := f.p.Clock()
	deadline := clk.Now().Add(jobDeadline)
	var rec dlaas.JobRecord
	for clk.Now().Before(deadline) {
		err := f.log.time(r.watch, "status", func() error {
			var err error
			rec, err = client.Status(f.ids[i])
			return err
		})
		if err == nil && (rec.State == want || rec.State.Terminal()) {
			break
		}
		clk.Sleep(pollInterval)
	}
	if final || rec.State != want {
		r.check(rec.State == want, "job %s (%s): state %s (%s), want %s", j.Name, f.ids[i], rec.State, rec.Reason, want)
	}
}

// injectFaults runs the generated fault order, one at a time with a
// settle pause between, recording each recovery in virtual time.
func (f *fleetSystem) injectFaults(r *runner) {
	clk := f.p.Clock()
	inj := f.p.Chaos()
	for n, fault := range f.in.Faults {
		if n > 0 {
			clk.Sleep(faultSettleSecs * time.Second)
		}
		var took time.Duration
		err := f.faults.time(r.watch, "fault:"+fault.Kind, func() error {
			var err error
			if fault.Kind == "etcd" {
				took, err = f.etcdFailover()
				return err
			}
			selector := map[string]string{"app": "dlaas-" + fault.Kind}
			if fault.Kind != "api" && fault.Kind != "lcm" {
				selector["job"] = f.ids[fault.Victim]
			}
			took, err = inj.MeasurePodRecovery(selector, recoveryDeadline)
			return err
		})
		if r.check(err == nil, "fault %d (%s, job %d): %v", n, fault.Kind, fault.Victim, err) {
			f.recoveries[fault.Kind] = append(f.recoveries[fault.Kind], took)
		}
	}
}

// etcdFailover crashes the etcd leader and measures the virtual time to
// the first Put that commits again, then brings the replica back so the
// next fault meets a full cluster.
func (f *fleetSystem) etcdFailover() (time.Duration, error) {
	kv := f.p.Etcd()
	clk := f.p.Clock()
	leader := kv.LeaderID()
	if leader < 0 {
		return 0, fmt.Errorf("etcd has no leader to crash")
	}
	start := clk.Now()
	kv.CrashNode(leader)
	defer kv.RestartNode(leader)
	if err := retryPut(kv, kvRoot+"failover", "x", 20); err != nil {
		return 0, fmt.Errorf("no Put committed after the leader crash: %w", err)
	}
	return clk.Since(start), nil
}

// verify checks every job: COMPLETED, a legal event history with
// monotone timestamps, every learner's final progress point at the full
// image count, and logs retrievable.
func (f *fleetSystem) verify(r *runner) {
	for i, j := range f.in.Jobs {
		if f.ids[i] == "" {
			continue
		}
		client := f.p.Client(j.Tenant)
		id := f.ids[i]

		events, err := client.Events(id)
		f.history[i] = events
		ok := err == nil && len(events) > 0 && events[len(events)-1].State == dlaas.StateCompleted
		for k := 1; ok && k < len(events); k++ {
			ok = types.CanTransition(events[k-1].State, events[k].State) && !events[k].Time.Before(events[k-1].Time)
		}
		r.check(ok, "job %s: event history %v (err=%v) is not a legal walk to COMPLETED", j.Name, events, err)

		for l := 0; l < j.Learners; l++ {
			points, err := client.Metrics(id, l)
			var images int64 = -1
			if len(points) > 0 {
				images = points[len(points)-1].Images
			}
			r.check(err == nil && images == j.Images, "job %s learner %d: final images %d, want %d (err=%v)", j.Name, l, images, j.Images, err)
			text, err := client.Logs(id, l)
			r.check(err == nil && text != "", "job %s learner %d: logs not retrievable (err=%v)", j.Name, l, err)
		}
	}
}

func (f *fleetSystem) counters() map[string]float64 {
	out := etcdCounters(f.p.Etcd())
	for key, v := range f.p.Metrics().Export().Counters {
		name, _, _ := strings.Cut(key, "{") // sum over label values
		out["platform."+name] += v
	}
	out["mongo.writes"] = float64(f.p.Mongo().Collection(core.JobsCollection).Writes())
	return out
}

func (f *fleetSystem) layers(r *runner, d map[string]float64, ops int) {
	jobs := float64(ops)
	etcdLayer(r, d)
	perJob := func(metric, counter string) { r.set(metric, ratio(d[counter], jobs), ops) }
	perJob("etcd.puts_per_job", "etcd.op.put")
	perJob("etcd.deletes_per_job", "etcd.op.delete")
	perJob("etcd.gets_per_job", "etcd.op.get")
	perJob("etcd.ranges_per_job", "etcd.op.range")
	perJob("etcd.watches_per_job", "etcd.op.watch")
	perJob("etcd.proposals_per_job", "etcd.proposals")
	perJob("mongo.writes_per_job", "mongo.writes")
	perJob("api.requests_per_job", "platform.api_requests_total")
	perJob("guardian.monitor_events_per_job", "platform.guardian_monitor_events")
	perJob("guardian.monitor_relists_per_job", "platform.guardian_monitor_relists")
	perJob("guardian.monitor_backstops_per_job", "platform.guardian_monitor_backstops")
	perJob("lcm.feed_events_per_job", "platform.lcm_feed_events")

	submits, statuses := r.tree.named("submit"), r.tree.named("status")
	r.setPercentile("api.submit_wall_ms_p50", wallsOf(submits), 50, millis)
	r.setPercentile("api.submit_virtual_ms_p50", virtualsOf(submits), 50, millis)
	r.setPercentile("api.status_wall_us_p50", wallsOf(statuses), 50, micros)
	r.set("api.status_calls_per_job", ratio(float64(len(statuses)), jobs), ops)
	r.set("jobs_per_wall_s", r.values["ops_per_wall_s"], ops)

	// Per-job readings from the platform's own records: deploy latency
	// from the event history, critical-path phases from the span tree.
	var deploy []time.Duration
	phases := map[string][]time.Duration{}
	var spans []float64
	for i := range f.in.Jobs {
		for _, ev := range f.history[i] {
			if ev.State == dlaas.StateProcessing {
				deploy = append(deploy, ev.Time.Sub(f.history[i][0].Time))
				break
			}
		}
		tree := f.p.Trace().Tree(f.ids[i])
		if tree == nil {
			continue
		}
		spans = append(spans, float64(countSpans(tree.Root)))
		att := trace.CriticalPath(tree)
		for _, phase := range jobPhases {
			phases[phase] = append(phases[phase], att.Phase(phase))
		}
	}
	r.setPercentile("job_deploy_virtual_ms_p50", deploy, 50, millis)
	r.set("trace.spans_per_job", median(spans), len(spans))
	for _, phase := range jobPhases {
		r.setPercentile("job.phase_"+phase+"_virtual_ms", phases[phase], 50, millis)
	}

	var all []float64
	for _, kind := range faultKinds {
		secs := durationsTo(f.recoveries[kind], time.Duration.Seconds)
		all = append(all, secs...)
		if kind == "etcd" {
			r.set("etcd.failover_virtual_ms", mean(secs)*1000, len(secs))
		} else {
			r.set(kind+".recovery_virtual_s", mean(secs), len(secs))
		}
	}
	r.set("recovery_virtual_s_mean", mean(all), len(all))
}

// jobPhases are the critical-path phases reported per job.
var jobPhases = []string{trace.PhaseQueue, trace.PhaseDeploy, trace.PhaseImagePull, trace.PhaseRendezvous,
	trace.PhaseDownload, trace.PhaseTrain, trace.PhaseCheckpoint, trace.PhaseStore, trace.PhaseControl, trace.PhaseRecovery}

func countSpans(s *trace.SpanData) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}
