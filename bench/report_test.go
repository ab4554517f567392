package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower"}
	higher := metricDef{Name: "throughput", Better: "higher"}
	setup := metricDef{Name: setupMetric, Better: "lower"}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{60, 100, 140, 80, 120}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slightly worse", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"much worse", lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"much better", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"too noisy to tell", lower, steady, noisy, verdictUnresolved},
		{"set-up spread does not gate", setup, steady, noisy, verdictOK},
		{"set-up shift does", setup, steady, []float64{140, 141, 139, 140, 140}, verdictRegressed},
	} {
		if got := judge(c.def, 0.10, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s", c.name, got.Verdict, got.Diff, got.Spread, c.want)
		}
	}
}

func TestCalibratedBound(t *testing.T) {
	for _, c := range []struct{ relRange, spread, want float64 }{
		{0, 0, 0.10}, {0.04, 0.01, 0.10}, {0.07, 0.02, 0.14}, {0.061, 0.01, 0.13}, {0.05, 0.06, 0.18}, {0.2, 0.05, 0.25},
	} {
		if got := calibratedBound(c.relRange, c.spread); got != c.want {
			t.Errorf("calibratedBound(%v, %v) = %v, want %v", c.relRange, c.spread, got, c.want)
		}
	}
}

// A failing check must reach the exit code and the driver's last line.
func TestFailedCheckForcesNonZeroExit(t *testing.T) {
	r := &runner{values: map[string]float64{}, counts: map[string]int{}}
	r.check(true, "a check that holds")
	if code, err := finish(&bytes.Buffer{}, r.result(&runResult{}, false), "", false); code != 0 || err != nil {
		t.Errorf("correct run exits %d (%v), want 0", code, err)
	}
	r.check(false, "fake failing check %d", 1)
	var out bytes.Buffer
	if code, err := finish(&out, r.result(&runResult{}, false), "", false); code != 1 || err != nil {
		t.Errorf("run with a failed check exits %d (%v), want 1", code, err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("last line is not one JSON object: %v: %s", err, out.Bytes())
	}
	if len(line) != 4 || string(line["correct"]) != "false" || string(line["attempted"]) != "2" || string(line["failed"]) != "1" {
		t.Errorf("last line %s: want exactly correct=false, attempted=2, failed=1, metrics", out.Bytes())
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Errorf("untraced last line carries %d metrics (err=%v), want the %d end-to-end ones", len(metrics), err, len(endToEnd))
	}
}

// BENCHMARK.json is the driver's view of the catalogue: the same lists,
// plus the bounds, inside the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	hasSetup := false
	for _, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		bounds[m.Name] = m.Bound
		hasSetup = hasSetup || (m.Name == setupMetric && m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound)
	}
	if !hasSetup {
		t.Errorf("end_to_end lacks %s in s, lower is better, with the largest bound", setupMetric)
	}
	gotNorm, _ := json.Marshal(got)
	wantNorm, _ := json.Marshal(benchmarkFile(bounds))
	if !bytes.Equal(gotNorm, wantNorm) {
		t.Errorf("BENCHMARK.json differs from the catalogue (regenerate with -calibrate):\n got %s\nwant %s", gotNorm, wantNorm)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's naming rules", m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %+v breaks the contract's naming rules", w)
		}
		seen[w.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(raw) > 64<<10 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads, %d bytes: outside the contract's limits", len(endToEnd), len(perLayer), len(workloadDefs), len(raw))
	}
}
