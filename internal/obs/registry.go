// Package obs is the repo's dependency-free observability toolkit: a
// metrics registry (counters, gauges, histograms with exponential latency
// buckets) that renders the Prometheus text exposition format, plus
// lightweight per-request trace spans. It exists so the serving path
// (examples/server) and the propagation hot paths (internal/core hooks) can
// report into one scrape surface without pulling in a client library; the
// perfbench benchmark reads its serve.* and per-layer counters from that
// scrape.
//
// All metric types are safe for concurrent use; the update paths are
// single atomic operations so instrumented hot loops pay no lock.
package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrRegistry is returned (wrapped) for invalid metric registrations.
var ErrRegistry = errors.New("obs: invalid registration")

type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is one named metric family: a type, a help string, a fixed label
// schema, and the set of label-value series created so far.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]any // seriesKey(labelValues) → *Counter/*Gauge/*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use. A name
// re-registered with a different type, label schema, or bucket layout is a
// programming error and panics: two call sites disagreeing about one metric
// would silently corrupt the exposition otherwise.
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Errorf("metric name %q: %w", name, ErrRegistry))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Errorf("metric %s: label name %q: %w", name, l, ErrRegistry))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Errorf("metric %s re-registered as %v%v, was %v%v: %w",
				name, typ, labels, f.typ, f.labels, ErrRegistry))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
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

func equalFloats(a, b []float64) bool {
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

// seriesKey joins label values with an unprintable separator so distinct
// value tuples cannot collide.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// with returns the series for values, creating it with mk on first use.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Errorf("metric %s: %d label values for schema %v: %w",
			f.name, len(values), f.labels, ErrRegistry))
	}
	key := seriesKey(values)
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m = mk()
	f.series[key] = m
	return m
}

// Counter is a monotonically increasing value. The float64 is stored as
// atomic bits; Add is a CAS loop, Inc the common fast path.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be >= 0 (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Errorf("counter add %v: %w", v, ErrRegistry))
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending) and tracks their sum. Observe is lock-free: one bucket
// increment plus two CAS-backed accumulations.
//
// Non-finite observations (NaN, ±Inf) are quarantined: a single NaN folded
// into the running sum would turn the whole `_sum` series into NaN forever,
// and a NaN never matches any `v <= ub` bucket test, silently skewing the
// implicit +Inf bucket. They are counted in a separate NonFinite counter,
// rendered as `<name>_nonfinite` in the exposition once non-zero.
type Histogram struct {
	upper     []float64
	counts    []atomic.Uint64
	sum       atomic.Uint64 // float64 bits
	count     atomic.Uint64
	nonFinite atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one value. Non-finite values increment NonFinite and leave
// the buckets, count, and sum untouched.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite.Add(1)
		return
	}
	// Linear scan: latency bucket layouts are small (~15 buckets) and the
	// common observations land early, beating binary search in practice.
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of finite observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of finite observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// NonFinite returns the number of dropped non-finite observations.
func (h *Histogram) NonFinite() uint64 { return h.nonFinite.Load() }

// ExpBuckets returns count bucket upper bounds starting at start and
// multiplying by factor: the exponential layout used for latencies, where
// relative (not absolute) resolution is what matters.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Errorf("exp buckets start=%v factor=%v count=%d: %w", start, factor, count, ErrRegistry))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default request/propagation latency layout:
// 50 µs .. ~1.6 s in ×2 steps (16 buckets), in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(50e-6, 2, 16) }

// Counter registers (or fetches) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.with(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or fetches) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.with(nil, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or fetches) a label-less histogram with the given
// ascending bucket upper bounds (a terminal +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	f := r.register(name, help, typeHistogram, nil, buckets)
	return f.with(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Errorf("histogram %s: no buckets: %w", name, ErrRegistry))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Errorf("histogram %s: buckets not ascending at %d: %w", name, i, ErrRegistry))
		}
	}
}

// CounterVec is a counter family with a fixed label schema.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a counter family with label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("counter vec %s: no labels (use Counter): %w", name, ErrRegistry))
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values (one per label name,
// in schema order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with a fixed label schema.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a gauge family with label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("gauge vec %s: no labels (use Gauge): %w", name, ErrRegistry))
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with a fixed label schema.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a histogram family with label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("histogram vec %s: no labels (use Histogram): %w", name, ErrRegistry))
	}
	checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// WriteText renders every registered family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// values, histogram buckets cumulative with a trailing +Inf.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns WriteText as a string.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = r.WriteText(&b)
	return b.String()
}

func (f *family) writeText(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.RUnlock()
	if len(series) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for i, m := range series {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(keys[i], "\x1f")
		}
		switch f.typ {
		case typeCounter:
			writeSeries(b, f.name, "", f.labels, values, "", m.(*Counter).Value())
		case typeGauge:
			writeSeries(b, f.name, "", f.labels, values, "", m.(*Gauge).Value())
		case typeHistogram:
			h := m.(*Histogram)
			var cum uint64
			for bi, ub := range h.upper {
				cum += h.counts[bi].Load()
				writeSeries(b, f.name, "_bucket", f.labels, values, formatFloat(ub), float64(cum))
			}
			writeSeries(b, f.name, "_bucket", f.labels, values, "+Inf", float64(h.Count()))
			writeSeries(b, f.name, "_sum", f.labels, values, "", h.Sum())
			writeSeries(b, f.name, "_count", f.labels, values, "", float64(h.Count()))
			if nf := h.NonFinite(); nf > 0 {
				// Emitted only when present so existing scrapes are unchanged;
				// a non-zero value flags a producer emitting NaN/±Inf.
				writeSeries(b, f.name, "_nonfinite", f.labels, values, "", float64(nf))
			}
		}
	}
}

// writeSeries renders one exposition line. le (when non-empty) is appended
// as the final label, matching histogram bucket convention.
func writeSeries(b *strings.Builder, name, suffix string, labels, values []string, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline are the three recognized escapes.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, `\`, `\\`), "\n", `\n`)
}
