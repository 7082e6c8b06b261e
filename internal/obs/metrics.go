package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of bucketed instruments, rendered in
// Prometheus text exposition format. Counters and gauges are rendered by
// their owner with WriteSample and WriteLabelled, from one snapshot of its
// own values (the engine renders its instrument table and its admission
// ledger that way).
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

// WriteLabelled renders one family of type typ split by one label: a
// sample per key of v, in key order. The caller bounds the label values.
func WriteLabelled(w io.Writer, name, help, typ, label string, v map[string]int64) {
	writeHeader(w, name, help, typ)
	for _, k := range slices.Sorted(maps.Keys(v)) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, v[k])
	}
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
	v.mu.Lock()
	kids := make([]*Histogram, 0, len(v.children))
	for _, k := range slices.Sorted(maps.Keys(v.children)) {
		kids = append(kids, v.children[k])
	}
	v.mu.Unlock()
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
