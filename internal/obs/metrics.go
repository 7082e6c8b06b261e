package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of hand-rolled instruments rendered in
// Prometheus text exposition format. It is the single source of truth for
// operational counters: the engine's /stats snapshot is re-derived from the
// same instruments, so the two surfaces cannot drift.
//
// All instruments are safe for concurrent use; registration is expected at
// construction time but is also safe concurrently.
type Registry struct {
	mu    sync.Mutex
	order []metric
	names map[string]bool
}

type metric interface {
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.order = append(r.order, m)
}

// WritePrometheus renders every registered instrument, in registration
// order, in Prometheus text format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range metrics {
		m.write(w)
	}
}

// Handler returns the GET /metrics handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ---- Counter ----

// Counter is a monotonically increasing atomic int64.
type Counter struct {
	name, help string
	labels     string // rendered label pairs, e.g. `tenant="acme"` (may be empty)
	v          atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	c.writeRow(w)
}

func (c *Counter) writeRow(w io.Writer) {
	if c.labels != "" {
		fmt.Fprintf(w, "%s{%s} %d\n", c.name, c.labels, c.v.Load())
		return
	}
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// ---- CounterVec ----

// CounterVec is a family of counters split by one label (e.g. tenant).
// Children are created on first use and rendered in label order. Callers
// are expected to bound label cardinality themselves (the engine folds
// unknown tenants into the default tenant before touching the vec).
type CounterVec struct {
	name, help string
	label      string
	mu         sync.Mutex
	children   map[string]*Counter
}

// NewCounterVec registers and returns a counter family keyed by a single
// label.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label,
		children: make(map[string]*Counter)}
	r.register(name, v)
	return v
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{name: v.name, help: v.help,
			labels: v.label + "=" + strconv.Quote(value)}
		v.children[value] = c
	}
	return c
}

// Value returns the current count for the given label value (0 when the
// child has never been touched).
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c.Value()
	}
	return 0
}

func (v *CounterVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Counter, len(keys))
	for i, k := range keys {
		kids[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, c := range kids {
		c.writeRow(w)
	}
}

// ---- Gauge ----

// Gauge is an atomic int64 that can move in both directions.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Add moves the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (monotone high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// ---- GaugeFunc ----

// gaugeFunc reads its value from a callback at scrape time; used for values
// owned by other subsystems (cache sizes, process-wide counters).
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFunc) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// ---- Histogram ----

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each le bucket counts observations <= its upper bound, plus +Inf).
// The sum is kept as float64 bits updated by CAS.
type Histogram struct {
	name, help string
	labels     string // rendered label pairs sans le, e.g. `phase="solve",`
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	count      atomic.Int64
}

// DefBuckets is the default latency bucket layout, in seconds.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

func newHistogram(name, help, labels string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly increasing: " + name)
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		labels: labels,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, "", bounds)
	r.register(name, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	h.writeRows(w)
}

func (h *Histogram) writeRows(w io.Writer) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, h.labels, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, h.labels, cum)
	suffix := ""
	if h.labels != "" {
		suffix = "{" + trimComma(h.labels) + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, suffix, cum)
}

// ---- HistogramVec ----

// HistogramVec is a family of histograms split by one label (e.g. phase).
// Children are created on first use and rendered in label order.
type HistogramVec struct {
	name, help string
	label      string
	bounds     []float64
	mu         sync.Mutex
	children   map[string]*Histogram
}

// NewHistogramVec registers and returns a histogram family keyed by a
// single label.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	v := &HistogramVec{name: name, help: help, label: label, bounds: bounds,
		children: make(map[string]*Histogram)}
	r.register(name, v)
	return v
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		labels := v.label + "=" + strconv.Quote(value) + ","
		h = newHistogram(v.name, v.help, labels, v.bounds)
		v.children[value] = h
	}
	return h
}

// Observe records one observation under the given label value.
func (v *HistogramVec) Observe(value string, obs float64) { v.With(value).Observe(obs) }

func (v *HistogramVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "histogram")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Histogram, len(keys))
	for i, k := range keys {
		kids[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, h := range kids {
		h.writeRows(w)
	}
}

// ---- rendering helpers ----

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}
