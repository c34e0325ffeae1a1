// Package obs is the repository's observability kernel: a stdlib-only
// metrics registry with atomic counters, gauges, and histograms, a
// label-family model, a consistent snapshot API, and a Prometheus
// text-exposition writer (prom.go). Both servers, cmd/afsimd and the shard
// coordinator of `afbench -suite -shard-coordinator`, mount it as GET
// /metrics; the scenario runner records its resilience bookkeeping through
// it (scenario.Telemetry).
//
// The design contract that matters more than any feature: instrumentation
// is read-only with respect to simulation state. Metric updates are plain
// atomic adds on the observing side of existing seams (observers, result
// structs, admission paths) and never feed back into protocol, engine, or
// scheduling decisions — a metrics-on run produces byte-identical traces
// and suite rows to a metrics-off run (the differential gate in
// internal/scenario asserts it under the race detector).
//
// Update paths are lock-free (atomic.Uint64/Int64, CAS for histogram sums);
// family and series registration take a mutex but are idempotent, so hot
// paths hold pre-resolved *Counter/*Gauge/*Histogram handles and never
// touch a map. See README.md for naming conventions and how to add a
// metric.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is usable
// standalone, but registry-issued counters are what WriteProm exports.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets hold non-cumulative
// counts internally; snapshots cumulate them into Prometheus le semantics.
// Observe is lock-free: bucket and count updates are atomic adds, the
// float64 sum is maintained with a CAS loop.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// le semantics: v lands in the first bucket whose bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the unit every
// latency histogram in this repository uses.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// ExpBuckets returns n exponentially growing upper bounds: start,
// start*factor, ... — the log-scale shape latency distributions need.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n evenly spaced upper bounds: start, start+width,
// ... — the linear shape round counts need.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}

// LatencyBuckets is the shared log-scale latency shape: 100µs doubling up
// to ~3.3 minutes (22 bounds), in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 22) }

// RoundBuckets is the shared linear round-count shape: 32-wide bins up to
// 1024 rounds (the interesting range of the paper's termination bounds;
// longer runs land in +Inf).
func RoundBuckets() []float64 { return LinearBuckets(32, 32, 32) }

// Kind discriminates the three metric families.
type Kind uint8

// The registry's metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE lines.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

var (
	validName  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one named metric with a fixed label schema; its children are
// the per-label-value series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // KindHistogram only

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (family, label values) child.
type series struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// seriesKey joins label values with a byte that cannot appear in them
// unescaped ambiguity-free (0xff is invalid UTF-8, so two value lists never
// collide).
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// child returns (building on first use) the series for the label values.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// Registry holds metric families. The zero value is not usable; build one
// with NewRegistry. Registration is idempotent: re-registering a name with
// the same kind and label schema returns the existing family (so two
// subsystems sharing a registry can both declare the metrics they touch),
// while a conflicting re-registration panics — a programmer error, caught
// at wiring time, never at scrape time.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register resolves or creates a family, enforcing schema consistency.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slicesEqual(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind or label schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: map[string]*series{},
	}
	if kind == KindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %s bucket bounds must ascend", name))
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	r.families[name] = f
	return f
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or resolves) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).child(nil).counter
}

// Gauge registers (or resolves) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).child(nil).gauge
}

// Histogram registers (or resolves) a label-less histogram over the bucket
// upper bounds (ascending; an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, bounds).child(nil).hist
}

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil)}
}

// GaugeVec registers (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil)}
}

// HistogramVec registers (or resolves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, bounds)}
}

// CounterVec is a labeled counter family; With resolves one series.
type CounterVec struct{ fam *family }

// With returns the counter for the label values (one per declared label, in
// declaration order), creating the series on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.child(values).counter }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.child(values).gauge }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.child(values).hist }

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// LE is the bucket's inclusive upper bound (+Inf for the last).
	LE float64
	// Count is the cumulative observation count at or below LE.
	Count uint64
}

// SeriesSnapshot is one series' values at snapshot time.
type SeriesSnapshot struct {
	// Labels are the series' label values, aligned with the family Labels.
	Labels []string
	// Value holds the counter or gauge value (unused for histograms).
	Value float64
	// Count, Sum, and Buckets describe a histogram series. Count equals the
	// +Inf bucket's cumulative count (the snapshot derives it from the
	// bucket loads, so bucket/count coherence holds even under concurrent
	// updates; Sum is read separately and may trail by in-flight
	// observations).
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// FamilySnapshot is one family's state at snapshot time.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
	Series []SeriesSnapshot
}

// Snapshot is a point-in-time copy of a registry, with families sorted by
// name and series by label values — the deterministic order WriteProm
// renders.
type Snapshot struct {
	Families []FamilySnapshot
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{Labels: s.values}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = float64(s.gauge.Value())
			case KindHistogram:
				ss.Buckets = make([]Bucket, len(s.hist.buckets))
				var cum uint64
				for i := range s.hist.buckets {
					cum += s.hist.buckets[i].Load()
					le := math.Inf(1)
					if i < len(s.hist.bounds) {
						le = s.hist.bounds[i]
					}
					ss.Buckets[i] = Bucket{LE: le, Count: cum}
				}
				ss.Count = cum
				ss.Sum = math.Float64frombits(s.hist.sumBits.Load())
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Value looks one counter/gauge series up in the snapshot (histograms
// report their observation count). It returns 0, false when the family or
// series does not exist — the lookup summaries use, not the hot path.
func (s Snapshot) Value(name string, labelValues ...string) (float64, bool) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			if slicesEqual(ser.Labels, labelValues) {
				if f.Kind == KindHistogram {
					return float64(ser.Count), true
				}
				return ser.Value, true
			}
		}
	}
	return 0, false
}

// Total sums a family's series — the cross-label rollup summary stanzas
// print (counters and gauges sum values; histograms sum observation
// counts).
func (s Snapshot) Total(name string) float64 {
	var total float64
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			if f.Kind == KindHistogram {
				total += float64(ser.Count)
			} else {
				total += ser.Value
			}
		}
	}
	return total
}

// Version reports the build's main-module version from the embedded build
// info ("(devel)" for plain go build/run), for health endpoints.
func Version() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
