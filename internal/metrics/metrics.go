// Package metrics is a small instrumentation registry (counters, gauges
// and duration histograms) used by the core services for the metering
// and monitoring the paper assigns to the API layer ("handles all the
// incoming API requests including load balancing, metering, and access
// management"). It is deliberately Prometheus-shaped without the wire
// format: names plus ordered label values.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry holds named instruments. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*float64
	gauges     map[string]*float64
	histograms map[string]*histogram
	keyBuf     []byte // key's scratch, guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*float64),
		gauges:     make(map[string]*float64),
		histograms: make(map[string]*histogram),
	}
}

// key renders name plus labels canonically — name{a,b} — into the
// registry's scratch buffer, valid until the next call. Looking a series
// up as m[string(key)] copies nothing, so with pointer-valued maps only
// the first update of a series allocates. Callers hold r.mu.
func (r *Registry) key(name string, labels []string) []byte {
	b := append(r.keyBuf[:0], name...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
		}
		b = append(b, '}')
	}
	r.keyBuf = b
	return b
}

// cell returns the series' value in m, adding it at zero on first use.
func (r *Registry) cell(m map[string]*float64, name string, labels []string) *float64 {
	k := r.key(name, labels)
	c := m[string(k)]
	if c == nil {
		c = new(float64)
		m[string(k)] = c
	}
	return c
}

// read returns the series' value in m, zero if it was never updated.
func (r *Registry) read(m map[string]*float64, name string, labels []string) float64 {
	if c := m[string(r.key(name, labels))]; c != nil {
		return *c
	}
	return 0
}

// Inc adds 1 to the counter.
func (r *Registry) Inc(name string, labels ...string) {
	r.Add(name, 1, labels...)
}

// Add increases the counter by v (v must be >= 0).
func (r *Registry) Add(name string, v float64, labels ...string) {
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative counter add for %s", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.cell(r.counters, name, labels) += v
}

// Counter reads the counter's current value.
func (r *Registry) Counter(name string, labels ...string) float64 { //lint:allow deadexport test-observation point: a metrics read accessor
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.read(r.counters, name, labels)
}

// SetGauge sets the gauge to v.
func (r *Registry) SetGauge(name string, v float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.cell(r.gauges, name, labels) = v
}

// Gauge reads the gauge's current value.
func (r *Registry) Gauge(name string, labels ...string) float64 { //lint:allow deadexport test-observation point: a metrics read accessor
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.read(r.gauges, name, labels)
}

// histogram accumulates durations in fixed exponential buckets.
type histogram struct {
	bounds []time.Duration
	counts []int64
	sum    time.Duration
	n      int64
}

// defaultBounds covers 1ms..~5min exponentially.
func defaultBounds() []time.Duration {
	var out []time.Duration
	for d := time.Millisecond; d <= 5*time.Minute; d *= 4 {
		out = append(out, d)
	}
	return out
}

// Observe records a duration sample into the named histogram.
func (r *Registry) Observe(name string, d time.Duration, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := r.key(name, labels)
	h := r.histograms[string(k)]
	if h == nil {
		h = &histogram{bounds: defaultBounds()}
		h.counts = make([]int64, len(h.bounds)+1)
		r.histograms[string(k)] = h
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i]++
	h.sum += d
	h.n++
}

// HistogramStats summarizes a histogram, including its full bucket
// detail: Bounds are the inclusive upper bounds, Counts has one entry
// per bound plus a final overflow bucket, so quantile claims are
// computed from the real distribution rather than the mean.
type HistogramStats struct {
	Count  int64
	Sum    time.Duration
	Mean   time.Duration
	Bounds []time.Duration
	Counts []int64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket containing the target rank.
// Samples in the overflow bucket clamp to the highest finite bound.
func (s HistogramStats) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	top := s.Bounds[len(s.Bounds)-1]
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return top
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + time.Duration(float64(hi-lo)*frac)
	}
	return top
}

// Histogram reads the named histogram's summary.
func (r *Registry) Histogram(name string, labels ...string) HistogramStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[string(r.key(name, labels))]
	if h == nil || h.n == 0 {
		return HistogramStats{}
	}
	return HistogramStats{
		Count:  h.n,
		Sum:    h.sum,
		Mean:   h.sum / time.Duration(h.n),
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
	}
}

// Quantile reads the q-quantile of the named histogram.
func (r *Registry) Quantile(name string, q float64, labels ...string) time.Duration { //lint:allow deadexport test-observation point: a metrics read accessor
	return r.Histogram(name, labels...).Quantile(q)
}

// Snapshot renders every instrument, sorted by name, one per line.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	hs := make(map[string]HistogramStats, len(r.histograms))
	for k, h := range r.histograms {
		hs[k] = HistogramStats{Count: h.n, Sum: h.sum,
			Bounds: append([]time.Duration(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...)}
	}
	var lines []string
	for k, v := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %.0f", k, *v))
	}
	for k, v := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %g", k, *v))
	}
	r.mu.Unlock()
	for k, h := range hs {
		mean := time.Duration(0)
		if h.Count > 0 {
			mean = h.Sum / time.Duration(h.Count)
		}
		lines = append(lines, fmt.Sprintf("histogram %s count=%d mean=%v p50=%v p95=%v p99=%v",
			k, h.Count, mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// HistogramExport is a histogram in Export form.
type HistogramExport struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
}

// Export is a structured point-in-time snapshot of the registry,
// suitable for embedding in JSON reports (campaign verdicts).
type Export struct {
	Counters   map[string]float64         `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramExport `json:"histograms,omitempty"`
}

// Export snapshots every instrument with real-bucket quantiles.
func (r *Registry) Export() Export {
	r.mu.Lock()
	out := Export{}
	if len(r.counters) > 0 {
		out.Counters = make(map[string]float64, len(r.counters))
		for k, v := range r.counters {
			out.Counters[k] = *v
		}
	}
	if len(r.gauges) > 0 {
		out.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			out.Gauges[k] = *v
		}
	}
	hs := make(map[string]HistogramStats, len(r.histograms))
	for k, h := range r.histograms {
		hs[k] = HistogramStats{Count: h.n, Sum: h.sum,
			Bounds: append([]time.Duration(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...)}
	}
	r.mu.Unlock()
	if len(hs) > 0 {
		out.Histograms = make(map[string]HistogramExport, len(hs))
		for k, h := range hs {
			mean := time.Duration(0)
			if h.Count > 0 {
				mean = h.Sum / time.Duration(h.Count)
			}
			out.Histograms[k] = HistogramExport{
				Count: h.Count, Mean: mean,
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	return out
}

// splitKey undoes key(): "name{a,b}" -> ("name", "a,b").
func splitKey(k string) (name, labels string) {
	if i := strings.IndexByte(k, '{'); i >= 0 && strings.HasSuffix(k, "}") {
		return k[:i], k[i+1 : len(k)-1]
	}
	return k, ""
}

func promLine(b *strings.Builder, name, labels, extra string, value string) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		if labels != "" {
			fmt.Fprintf(b, "labels=%q", labels)
			if extra != "" {
				b.WriteByte(',')
			}
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// PrometheusText renders the registry in the Prometheus text
// exposition format. The registry stores ordered label values without
// keys, so they surface as a single `labels="a,b"` label; durations
// are exported in seconds. Output is deterministically sorted.
func (r *Registry) PrometheusText() string {
	r.mu.Lock()
	counters := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = *v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = *v
	}
	hs := make(map[string]HistogramStats, len(r.histograms))
	for k, h := range r.histograms {
		hs[k] = HistogramStats{Count: h.n, Sum: h.sum,
			Bounds: append([]time.Duration(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...)}
	}
	r.mu.Unlock()

	var b strings.Builder
	typed := make(map[string]bool)
	emitType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, k := range sortedKeys(counters) {
		name, labels := splitKey(k)
		emitType(name, "counter")
		promLine(&b, name, labels, "", fmt.Sprintf("%g", counters[k]))
	}
	for _, k := range sortedKeys(gauges) {
		name, labels := splitKey(k)
		emitType(name, "gauge")
		promLine(&b, name, labels, "", fmt.Sprintf("%g", gauges[k]))
	}
	hkeys := make([]string, 0, len(hs))
	for k := range hs {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		name, labels := splitKey(k)
		h := hs[k]
		emitType(name, "histogram")
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			promLine(&b, name+"_bucket", labels,
				fmt.Sprintf("le=%q", fmt.Sprintf("%g", bound.Seconds())),
				fmt.Sprintf("%d", cum))
		}
		promLine(&b, name+"_bucket", labels, `le="+Inf"`, fmt.Sprintf("%d", h.Count))
		promLine(&b, name+"_sum", labels, "", fmt.Sprintf("%g", h.Sum.Seconds()))
		promLine(&b, name+"_count", labels, "", fmt.Sprintf("%d", h.Count))
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
