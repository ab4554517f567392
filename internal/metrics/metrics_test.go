package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	r.Inc("api_requests", "submit", "alice")
	r.Inc("api_requests", "submit", "alice")
	r.Add("api_requests", 3, "submit", "bob")
	if got := r.Counter("api_requests", "submit", "alice"); got != 2 {
		t.Fatalf("alice = %v", got)
	}
	if got := r.Counter("api_requests", "submit", "bob"); got != 3 {
		t.Fatalf("bob = %v", got)
	}
	if got := r.Counter("api_requests", "halt", "alice"); got != 0 {
		t.Fatalf("unobserved = %v", got)
	}
}

func TestNegativeAddPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("negative add did not panic")
		}
	}()
	r.Add("x", -1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("free_gpus", 12)
	r.SetGauge("free_gpus", 8)
	if got := r.Gauge("free_gpus"); got != 8 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	r.Observe("latency", 10*time.Millisecond, "submit")
	r.Observe("latency", 30*time.Millisecond, "submit")
	st := r.Histogram("latency", "submit")
	if st.Count != 2 || st.Sum != 40*time.Millisecond || st.Mean != 20*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	if st := r.Histogram("latency", "other"); st.Count != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Inc("b_counter")
	r.SetGauge("a_gauge", 1)
	r.Observe("c_hist", time.Second)
	snap := r.Snapshot()
	for _, want := range []string{"counter b_counter 1", "gauge a_gauge 1", "c_hist count=1"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
	lines := strings.Split(snap, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("snapshot not sorted:\n%s", snap)
		}
	}
}

func TestHistogramBucketExport(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat", 2*time.Millisecond)
	r.Observe("lat", 10*time.Millisecond)
	r.Observe("lat", 24*time.Hour) // overflow bucket
	st := r.Histogram("lat")
	if len(st.Bounds) == 0 || len(st.Counts) != len(st.Bounds)+1 {
		t.Fatalf("bucket detail missing: bounds=%d counts=%d", len(st.Bounds), len(st.Counts))
	}
	var total int64
	for _, c := range st.Counts {
		total += c
	}
	if total != st.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, st.Count)
	}
	if st.Counts[len(st.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", st.Counts[len(st.Counts)-1])
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	// 99 fast samples and 1 slow one: p50 must stay in the fast
	// bucket, p99+ must reach the slow one. This is exactly what the
	// mean hides.
	for i := 0; i < 99; i++ {
		r.Observe("lat", 2*time.Millisecond)
	}
	r.Observe("lat", 40*time.Second)
	p50 := r.Quantile("lat", 0.50)
	p999 := r.Quantile("lat", 0.999)
	if p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want within the 4ms bucket", p50)
	}
	if p999 < 16*time.Second {
		t.Fatalf("p99.9 = %v, want in the slow bucket", p999)
	}
	mean := r.Histogram("lat").Mean
	if p50 >= mean {
		t.Fatalf("p50 (%v) should sit far below the outlier-dragged mean (%v)", p50, mean)
	}
	// Quantiles interpolate monotonically.
	last := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := r.Quantile("lat", q)
		if v < last {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, last)
		}
		last = v
	}
	if r.Quantile("missing", 0.5) != 0 {
		t.Fatal("missing histogram quantile must be 0")
	}
}

func TestExport(t *testing.T) {
	r := NewRegistry()
	r.Inc("jobs_total", "completed")
	r.SetGauge("free_gpus", 3)
	r.Observe("lat", 5*time.Millisecond, "submit")
	ex := r.Export()
	if ex.Counters[`jobs_total{completed}`] != 1 {
		t.Fatalf("export counters = %+v", ex.Counters)
	}
	if ex.Gauges["free_gpus"] != 3 {
		t.Fatalf("export gauges = %+v", ex.Gauges)
	}
	h, ok := ex.Histograms[`lat{submit}`]
	if !ok || h.Count != 1 || h.P99 == 0 {
		t.Fatalf("export histograms = %+v", ex.Histograms)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Inc("api_requests_total", "submit", "alice")
	r.SetGauge("free_gpus", 8)
	r.Observe("api_latency", 3*time.Millisecond, "submit")
	text := r.PrometheusText()
	for _, want := range []string{
		"# TYPE api_requests_total counter",
		`api_requests_total{labels="submit,alice"} 1`,
		"# TYPE free_gpus gauge",
		"free_gpus 8",
		"# TYPE api_latency histogram",
		`api_latency_bucket{labels="submit",le="+Inf"} 1`,
		`api_latency_count{labels="submit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
	// Buckets are cumulative: the +Inf bucket equals _count.
	if r.PrometheusText() != text {
		t.Fatal("prometheus text not deterministic")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Inc("ops")
				r.Observe("lat", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops"); got != 1600 {
		t.Fatalf("ops = %v", got)
	}
	if st := r.Histogram("lat"); st.Count != 1600 {
		t.Fatalf("hist = %+v", st)
	}
}

// TestUpdateAllocs: updating a series that exists allocates nothing — the
// key is built in the registry's scratch buffer — and neither does reading
// one. Only a series' first update pays for its key and cell.
func TestUpdateAllocs(t *testing.T) {
	r := NewRegistry()
	update := func() {
		r.Inc("raft_appends_sent", "etcd-0")
		r.Inc("raft_idle_rounds", "etcd-0")
		r.Inc("raft_wakes", "etcd-0", "client")
		r.Add("api_requests", 2, "submit", "alice")
		r.SetGauge("hub_queue_depth", 3, "etcd-0")
		r.SetGauge("free_gpus", 12)
		r.Observe("deploy", 40*time.Millisecond, "tensorflow")
		if r.Counter("api_requests", "submit", "alice") == 0 || r.Gauge("free_gpus") != 12 {
			t.Fatal("series lost")
		}
	}
	if got := testing.AllocsPerRun(100, update); got != 0 {
		t.Errorf("%v allocs per round of updates to existing series, want 0", got)
	}
}

// TestExpositionGolden: the three renderings of a fixed update script are
// byte for byte what the registry produced when series were keyed by
// freshly concatenated strings and held by value.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Inc("api_requests", "submit", "alice")
		r.Add("api_requests", 2.5, "submit", "bob")
		r.Inc("raft_appends_sent")
		r.Add("zero", 0)
		r.SetGauge("hub_queue_depth", float64(i), "etcd-0")
		r.SetGauge("free_gpus", 12-float64(i))
		r.Observe("deploy", time.Duration(i+1)*40*time.Millisecond, "tensorflow")
		r.Observe("put", time.Duration(i)*time.Millisecond)
	}
	r.Inc("a", "b", "") // an empty label still counts
	export, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"Snapshot", r.Snapshot(), goldenSnapshot},
		{"PrometheusText", r.PrometheusText(), goldenPrometheus},
		{"Export", string(export), goldenExport},
	} {
		if c.got != c.want {
			t.Errorf("%s changed:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}

const goldenSnapshot = `counter api_requests{submit,alice} 3
counter api_requests{submit,bob} 8
counter a{b,} 1
counter raft_appends_sent 3
counter zero 0
gauge free_gpus 10
gauge hub_queue_depth{etcd-0} 2
histogram deploy{tensorflow} count=3 mean=80ms p50=112ms p95=241.599999ms p99=253.119999ms
histogram put count=3 mean=1ms p50=750µs p95=3.549999ms p99=3.909999ms`

const goldenPrometheus = `# TYPE api_requests counter
api_requests{labels="submit,alice"} 3
api_requests{labels="submit,bob"} 7.5
# TYPE a counter
a{labels="b,"} 1
# TYPE raft_appends_sent counter
raft_appends_sent 3
# TYPE zero counter
zero 0
# TYPE free_gpus gauge
free_gpus 10
# TYPE hub_queue_depth gauge
hub_queue_depth{labels="etcd-0"} 2
# TYPE deploy histogram
deploy_bucket{labels="tensorflow",le="0.001"} 0
deploy_bucket{labels="tensorflow",le="0.004"} 0
deploy_bucket{labels="tensorflow",le="0.016"} 0
deploy_bucket{labels="tensorflow",le="0.064"} 1
deploy_bucket{labels="tensorflow",le="0.256"} 3
deploy_bucket{labels="tensorflow",le="1.024"} 3
deploy_bucket{labels="tensorflow",le="4.096"} 3
deploy_bucket{labels="tensorflow",le="16.384"} 3
deploy_bucket{labels="tensorflow",le="65.536"} 3
deploy_bucket{labels="tensorflow",le="262.144"} 3
deploy_bucket{labels="tensorflow",le="+Inf"} 3
deploy_sum{labels="tensorflow"} 0.24
deploy_count{labels="tensorflow"} 3
# TYPE put histogram
put_bucket{le="0.001"} 2
put_bucket{le="0.004"} 3
put_bucket{le="0.016"} 3
put_bucket{le="0.064"} 3
put_bucket{le="0.256"} 3
put_bucket{le="1.024"} 3
put_bucket{le="4.096"} 3
put_bucket{le="16.384"} 3
put_bucket{le="65.536"} 3
put_bucket{le="262.144"} 3
put_bucket{le="+Inf"} 3
put_sum 0.003
put_count 3
`

const goldenExport = `{"counters":{"api_requests{submit,alice}":3,"api_requests{submit,bob}":7.5,"a{b,}":1,"raft_appends_sent":3,"zero":0},"gauges":{"free_gpus":10,"hub_queue_depth{etcd-0}":2},"histograms":{"deploy{tensorflow}":{"count":3,"mean":80000000,"p50":112000000,"p95":241599999,"p99":253119999},"put":{"count":3,"mean":1000000,"p50":750000,"p95":3549999,"p99":3909999}}}`
