package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of the instruments that carry a label or
// buckets, rendered in Prometheus text exposition format. Scalar series are
// rendered by their owner with WriteSample, from one snapshot of its own
// values (the engine renders its instrument table that way).
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

// MetricsHandler returns a GET /metrics handler whose body write renders in
// Prometheus text format.
func MetricsHandler(write func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
}

// WriteSample renders one unlabelled family of type typ ("counter" or
// "gauge") holding the single sample v.
func WriteSample(w io.Writer, name, help, typ string, v int64) {
	writeHeader(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
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
	children   map[string]*atomic.Int64
}

// NewCounterVec registers and returns a counter family keyed by a single
// label.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label,
		children: make(map[string]*atomic.Int64)}
	r.register(name, v)
	return v
}

// With returns the child counter for the given label value; callers only
// add to it.
func (v *CounterVec) With(value string) *atomic.Int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = new(atomic.Int64)
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
		return c.Load()
	}
	return 0
}

func (v *CounterVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "counter")
	values, kids := sortedChildren(&v.mu, v.children)
	for i, c := range kids {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, values[i], c.Load())
	}
}

// sortedChildren returns a family's label values in order and their
// children, read under the family's lock.
func sortedChildren[T any](mu *sync.Mutex, children map[string]T) ([]string, []T) {
	mu.Lock()
	defer mu.Unlock()
	values := make([]string, 0, len(children))
	for k := range children {
		values = append(values, k)
	}
	sort.Strings(values)
	kids := make([]T, len(values))
	for i, k := range values {
		kids[i] = children[k]
	}
	return values, kids
}

// ---- Histogram ----

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each le bucket counts observations <= its upper bound, plus +Inf).
// The sum is kept as float64 bits updated by CAS.
type Histogram struct {
	name, help string
	labels     string                         // rendered label pairs sans le, e.g. `phase="solve",`
	counts     [len(buckets) + 1]atomic.Int64 // last is +Inf
	sumBits    atomic.Uint64
	count      atomic.Int64
}

// buckets is the one bucket layout of every histogram, in seconds: fixed,
// so bucket series stay stable across restarts and aggregate by le.
var buckets = [...]float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// NewHistogram registers and returns a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	r.register(name, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(buckets[:], v) // first bound >= v
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
	for i, b := range buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, h.labels, formatFloat(b), cum)
	}
	cum += h.counts[len(buckets)].Load()
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
	mu         sync.Mutex
	children   map[string]*Histogram
}

// NewHistogramVec registers and returns a histogram family keyed by a
// single label.
func (r *Registry) NewHistogramVec(name, help, label string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, label: label,
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
		h = &Histogram{name: v.name, help: v.help, labels: v.label + "=" + strconv.Quote(value) + ","}
		v.children[value] = h
	}
	return h
}

// Observe records one observation under the given label value.
func (v *HistogramVec) Observe(value string, obs float64) { v.With(value).Observe(obs) }

func (v *HistogramVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "histogram")
	_, kids := sortedChildren(&v.mu, v.children)
	for _, h := range kids {
		h.writeRows(w)
	}
}

// ---- rendering helpers ----

// helpEscaper escapes a HELP text as the text format requires.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, helpEscaper.Replace(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float sample; infinities come out as +Inf and -Inf.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}
