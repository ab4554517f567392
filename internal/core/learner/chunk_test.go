package learner

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/trainsim"
)

// chunkInstantBudget bounds the virtual instants one more training chunk
// costs a learner run: its one sleep, plus the share of the harness's
// 5 s exit-code poll that the chunk's time adds. It measures 1.75. When
// the chunk's progress write and metric point each paid a round trip of
// their own after the compute, it measured 3.75.
const chunkInstantBudget = 2.25

// TestTrainingChunkInstants runs the same job at 640 and at 3 200 images
// (20 and 100 one-step chunks) and bounds the instants each extra chunk
// costs, read against the metric points the learner wrote.
func TestTrainingChunkInstants(t *testing.T) {
	var instants, points [2]uint64
	for i, images := range []int64{640, 3200} {
		t.Run(strconv.FormatInt(images, 10)+"-images", func(t *testing.T) {
			d, clk := newTestDeps(t)
			m := smallManifest()
			m.DatasetImages = images
			start := clk.Instants()
			if code := runLearnerPod(t, d, clk, m, true); code != ExitOK {
				t.Fatalf("exit code = %d, want %d", code, ExitOK)
			}
			instants[i] = clk.Instants() - start
			vol, err := d.NFS.Volume("vol-j")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := vol.Read(MetricsPath(0))
			if err != nil {
				t.Fatal(err)
			}
			points[i] = uint64(bytes.Count(raw, []byte("\n")))
		})
	}
	if t.Failed() {
		return
	}
	if points != [2]uint64{20, 100} {
		t.Fatalf("metric points %v, want one per chunk: [20 100]", points)
	}
	slope := float64(instants[1]-instants[0]) / float64(points[1]-points[0])
	t.Logf("instants %v for metric points %v: %.2f per chunk (budget %.2f)", instants, points, slope, chunkInstantBudget)
	if slope > chunkInstantBudget {
		t.Errorf("%.2f virtual instants per training chunk, budget %.2f: does the chunk's report pay a round trip of its own after the compute (see nfs.Volume.Compound)?", slope, chunkInstantBudget)
	}
}

// TestChunkKillRule pins what a kill does to the chunk it lands in, on a
// manual clock: one during the chunk's compute drops the chunk's report,
// and one during the round trip the report rides in still lands it, at
// the end of that round trip.
func TestChunkKillRule(t *testing.T) {
	stepTime := TrainingConfig(smallManifest(), gpu.K80).StepTime()
	rtt := netsim.NFSLink.Latency
	for _, tc := range []struct {
		name   string
		killAt time.Duration // into the second chunk
		points int           // metric points on the volume afterwards
	}{
		{"compute", stepTime / 2, 1},
		{"round trip", stepTime + rtt/2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			d := newTestDepsOn(t, clk)
			vol := startLearnerPod(t, d, smallManifest(), true)
			// The second chunk starts once the first report's metric
			// point has landed.
			for !vol.Exists(MetricsPath(0)) {
				next, ok := clk.NextDeadline()
				if !ok {
					t.Fatal("nothing parked on the clock before the first report")
				}
				clocktest.Run(clk, next.Sub(clk.Now()))
			}
			second := clk.Now()
			clocktest.Run(clk, tc.killAt)
			if err := d.Kube.DeletePod("learner-pod-0"); err != nil {
				t.Fatal(err)
			}
			clocktest.Run(clk, time.Minute)

			lines := bytes.Split(bytes.TrimSuffix(readOn(t, clk, vol, MetricsPath(0)), []byte("\n")), []byte("\n"))
			if len(lines) != tc.points {
				t.Fatalf("%d metric points after a kill %v into the second chunk, want %d:\n%s", len(lines), tc.killAt, tc.points, bytes.Join(lines, []byte("\n")))
			}
			var last trainsim.MetricPoint
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatal(err)
			}
			images := int64(tc.points) * int64(smallManifest().BatchPerGPU)
			if got := string(readOn(t, clk, vol, ProgressPath(0))); last.Images != images || got != strconv.FormatInt(images, 10) {
				t.Fatalf("last point at %d images, progress %q; want both at %d", last.Images, got, images)
			}
			if tc.points == 2 {
				want := float64(second.Add(stepTime+rtt).UnixNano()) / 1e9
				if diff := last.ClusterSeconds - want; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("the killed chunk's point is stamped %.6f s, want its round trip's end, %.6f s", last.ClusterSeconds, want)
				}
			}
		})
	}
}

// readOn reads path on a manual clock, running the clock through the
// read's round trip.
func readOn(t *testing.T, clk *clock.Sim, vol *nfs.Volume, path string) []byte {
	t.Helper()
	got := make(chan []byte, 1)
	go func() {
		data, _ := vol.Read(path)
		got <- data
	}()
	clocktest.Run(clk, netsim.NFSLink.Latency)
	select {
	case data := <-got:
		return data
	case <-time.After(5 * time.Second):
		t.Fatalf("reading %s did not finish in its round trip", path)
		return nil
	}
}
