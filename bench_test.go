// Benchmarks regenerating every table/figure in the paper's evaluation
// (Sec. IV), plus ablations for the design choices DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// Fig. 2 and Fig. 3 are analytic-model sweeps (instant); Fig. 4 boots
// the full platform and crash-injects every component, so it dominates
// bench wall time. Tables are emitted via b.Log; run with -v to see
// them, or use cmd/dlaas-figures for plain output.
package dlaas_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/etcd"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/trainsim"

	"repro/internal/clock"
)

// BenchmarkFig2 regenerates the paper's Fig. 2: DLaaS vs bare-metal
// throughput difference for VGG-16/Caffe and InceptionV3/TensorFlow on
// 1-4 K80 GPUs. The reported metric is the mean overhead percent.
func BenchmarkFig2(b *testing.B) {
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2(uint64(i))
	}
	mean := 0.0
	for _, r := range rows {
		mean += r.DiffPercent
	}
	mean /= float64(len(rows))
	b.ReportMetric(mean, "mean-overhead-%")
	b.Log("\n" + experiments.FormatFig2(rows))
}

// BenchmarkFig3 regenerates the paper's Fig. 3: DLaaS (PCIe P100) vs
// NVIDIA DGX-1 on the TensorFlow HPM benchmarks.
func BenchmarkFig3(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(uint64(i))
	}
	var max float64
	for _, r := range rows {
		if r.DiffPercent > max {
			max = r.DiffPercent
		}
	}
	b.ReportMetric(max, "max-degradation-%")
	b.Log("\n" + experiments.FormatFig3(rows))
}

// BenchmarkFig4 regenerates the paper's Fig. 4: crash-recovery time per
// component, measured by killing pods on the full platform. Durations
// are virtual (cluster) time; the metric reports each component's mean
// in seconds.
func BenchmarkFig4(b *testing.B) {
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4(experiments.Fig4Options{SamplesPerComponent: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		var sum time.Duration
		for _, s := range r.Samples {
			sum += s
		}
		mean := sum / time.Duration(len(r.Samples))
		b.ReportMetric(mean.Seconds(), r.Component+"-recovery-s")
	}
	b.Log("\n" + experiments.FormatFig4(rows))
}

// BenchmarkAblationCheckpointInterval quantifies the paper's checkpoint
// tradeoff ("the checkpointing interval depends on the tolerance level
// of the user to failures"): training-time overhead vs expected lost
// work, for VGG-16 on a P100, across intervals.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	cfg := trainsim.Config{
		Model:     trainsim.VGG16,
		Framework: trainsim.TensorFlow,
		GPU:       gpu.P100,
		NumGPUs:   1,
		Overheads: trainsim.DLaaS(),
	}
	ckpt := cfg.CheckpointTime()
	for _, interval := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour, 6 * time.Hour} {
		b.Run(interval.String(), func(b *testing.B) {
			var overheadPct, expectedLoss float64
			for i := 0; i < b.N; i++ {
				overheadPct = ckpt.Seconds() / interval.Seconds() * 100
				expectedLoss = interval.Seconds() / 2 // mean lost work on crash
			}
			b.ReportMetric(overheadPct, "ckpt-overhead-%")
			b.ReportMetric(expectedLoss, "expected-lost-s")
		})
	}
}

// BenchmarkAblationSyncStrategy compares ring all-reduce against a
// central parameter server for 4-learner VGG-16 over 1GbE — the
// distributed-training substrate choice.
func BenchmarkAblationSyncStrategy(b *testing.B) {
	base := trainsim.Config{
		Model:     trainsim.VGG16,
		Framework: trainsim.Horovod,
		GPU:       gpu.P100,
		NumGPUs:   4,
		Overheads: trainsim.DLaaS(),
	}
	for _, mode := range []struct {
		name string
		sync trainsim.SyncMode
	}{
		{"allreduce", trainsim.SyncAllReduce},
		{"paramserver", trainsim.SyncParameterServer},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := base
			cfg.Sync = mode.sync
			var tput float64
			for i := 0; i < b.N; i++ {
				tput = cfg.Throughput()
			}
			b.ReportMetric(tput, "img/s")
		})
	}
}

// BenchmarkAblationEtcdReplication quantifies the efficiency cost of the
// dependability choice the paper highlights — 3-way-replicated etcd for
// status updates — by measuring the virtual-time commit latency of a
// status Put at replication factors 1, 3 and 5.
func BenchmarkAblationEtcdReplication(b *testing.B) {
	for _, n := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("replicas-%d", n), func(b *testing.B) {
			clk := clock.NewSim()
			defer clk.Close()
			store := etcd.New(n, clk)
			defer store.Close()
			// Warm up: wait for a leader via a first write.
			if _, err := store.Put("/warm", "x"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := clk.Now()
			for i := 0; i < b.N; i++ {
				if _, err := store.Put("/jobs/j/learners/0/status", "TRAINING"); err != nil {
					b.Fatal(err)
				}
			}
			virtual := clk.Since(start)
			b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtual-ms/op")
		})
	}
}

// BenchmarkGangScheduler measures the gang scheduler under a mixed
// 1/2/4-learner workload on a 16-node (64 GPU) cluster: mean placement
// latency (virtual time from submission to atomic admission of the whole
// gang) and mean cluster GPU utilization while the queue drains.
func BenchmarkGangScheduler(b *testing.B) {
	clk := clock.NewSim()
	defer clk.Close()
	nodes := make([]kube.NodeSpec, 16)
	for i := range nodes {
		nodes[i] = kube.NodeSpec{Name: fmt.Sprintf("n%02d", i), GPUs: 4, GPUType: "K80"}
	}
	c := kube.NewCluster(kube.Config{Clock: clk}, nodes...)
	defer c.Stop()
	const totalGPUs = 16 * 4
	const memberRuntime = 30 * time.Second // virtual training time per member
	memberCounts := []int{1, 2, 4}

	var utilSum float64
	utilSamples := 0
	sampleUtil := func() {
		utilSum += float64(totalGPUs-c.FreeGPUs("")) / totalGPUs
		utilSamples++
	}

	b.ResetTimer()
	gangs := make([]*kube.Gang, b.N)
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bgang-%d", i)
		members := memberCounts[i%len(memberCounts)]
		g, err := c.SubmitGang(kube.GangSpec{
			Name: name, Tenant: fmt.Sprintf("team-%d", i%8),
			Members: members, GPUsPerMember: 1, GPUType: "K80",
		})
		if err != nil {
			b.Fatal(err)
		}
		gangs[i] = g
		for m := 0; m < members; m++ {
			spec := kube.PodSpec{
				Name:          fmt.Sprintf("%s-%d", name, m),
				Gang:          name,
				GPUs:          1,
				GPUType:       "K80",
				RestartPolicy: kube.RestartNever,
				Labels:        map[string]string{"bgang": name},
				Containers: []kube.ContainerSpec{{
					Name: "learn",
					Run:  func(ctx *kube.ContainerCtx) int { ctx.Sleep(memberRuntime); return 0 },
				}},
			}
			if _, err := c.CreatePod(spec); err != nil {
				b.Fatal(err)
			}
		}
		clk.Sleep(250 * time.Millisecond) // submission cadence
		sampleUtil()
	}
	// Drain: release each gang once its members finish, so queued gangs
	// admit; sample utilization as the backlog clears.
	for {
		live := 0
		for _, g := range gangs {
			if c.GangByName(g.Spec.Name) == nil {
				continue
			}
			live++
			state := g.State()
			drained := len(c.Pods(map[string]string{"bgang": g.Spec.Name})) == 0
			if (state == kube.GangAdmitted && drained) || state == kube.GangPreempted {
				c.CancelGang(g.Spec.Name)
			}
		}
		if live == 0 {
			break
		}
		clk.Sleep(time.Second)
		sampleUtil()
	}
	var latency time.Duration
	for _, g := range gangs {
		latency += g.PlacementLatency()
	}
	b.ReportMetric(float64(latency.Milliseconds())/float64(b.N), "placement-ms/gang")
	b.ReportMetric(utilSum/float64(utilSamples)*100, "gpu-util-%")
}

// BenchmarkTrainsimStepTime measures the analytic model itself (it backs
// every learner's pacing decisions, so it must be cheap).
func BenchmarkTrainsimStepTime(b *testing.B) {
	cfg := trainsim.Config{
		Model:     trainsim.ResNet50,
		Framework: trainsim.TensorFlow,
		GPU:       gpu.P100,
		NumGPUs:   4,
		Overheads: trainsim.DLaaS(),
	}
	var d time.Duration
	for i := 0; i < b.N; i++ {
		d = cfg.StepTime()
	}
	_ = d
}
