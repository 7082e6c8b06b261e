// Package obs is the engine's observability layer: request-scoped span
// traces (this file), a named metrics registry with Prometheus text
// exposition (metrics.go), and a small structured logger (log.go). Its only
// dependency is the public wire package client, whose TraceSpan is the one
// span-tree type a trace renders to. Everything here is strictly
// observational — nothing in this package may influence evaluation
// results, which is why no identifier or timestamp minted here ever
// participates in cache keys or solver state.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"spq/client"
)

// maxSpanChildren bounds the fan-out recorded under a single span so a
// pathological query (thousands of CSA iterations, say) cannot grow a trace
// without bound. Excess children are counted, not stored.
const maxSpanChildren = 512

// Trace is one request-scoped span tree. A trace is created at admission
// (adopting a caller's trace ID from the X-Spq-Trace header), carried
// through the evaluation by context, and rendered on demand — including
// mid-flight, so the trace endpoint works on running jobs.
type Trace struct {
	id   string
	mu   sync.Mutex
	root *Span

	// onEnd, when set, observes every finished span. The engine uses it to
	// feed phase-latency histograms from the same events that build the tree.
	onEnd func(name string, d time.Duration)
}

// Span is one timed phase within a trace. All mutation is guarded by the
// owning trace's mutex: shard solves start sibling spans concurrently.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
	dropped  int
}

// Attr is one key/value annotation on a span. Values are strings on the
// wire; use SetInt for numeric attributes.
type Attr struct {
	Key   string
	Value string
}

// newTraceID mints a random 16-hex-digit trace identifier.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to a
		// fixed marker rather than plumbing an error through every caller.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts a trace with a root span named name under trace ID id: an
// upstream ID when a request adopts its caller's trace from the
// X-Spq-Trace header, or a fresh one when id is "".
func NewTrace(id, name string) *Trace {
	if id == "" {
		id = newTraceID()
	}
	tr := &Trace{id: id}
	tr.root = &Span{tr: tr, name: name, start: time.Now()}
	return tr
}

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// OnSpanEnd registers fn to be called for every span that finishes. Set it
// before the trace is shared across goroutines.
func (t *Trace) OnSpanEnd(fn func(name string, d time.Duration)) {
	if t != nil {
		t.onEnd = fn
	}
}

// StartChild opens a child span under s. Nil receivers are inert, which
// lets instrumentation run unconditionally on untraced paths.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		s.tr.mu.Unlock()
		// Still return a live span so attrs/End behave; it just isn't kept.
		return c
	}
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End marks the span finished. Repeated calls keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.end.IsZero() {
		s.tr.mu.Unlock()
		return
	}
	s.end = time.Now()
	d := s.end.Sub(s.start)
	onEnd := s.tr.onEnd
	name := s.name
	s.tr.mu.Unlock()
	if onEnd != nil {
		onEnd(name, d)
	}
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) { s.SetAttr(key, formatInt(v)) }

// Data renders a snapshot of the trace as its wire type: what the trace
// endpoint returns. Start times are absolute unix microseconds so spans
// line up with a caller's (modulo clock skew); durations are microseconds.
// Unfinished spans report a zero duration; the snapshot is safe to take
// while the trace is still being written.
func (t *Trace) Data() *client.TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.root.dataLocked()
	d.TraceID = t.id
	return d
}

func (s *Span) dataLocked() *client.TraceSpan {
	d := &client.TraceSpan{
		Name:        s.name,
		StartUnixUS: s.start.UnixMicro(),
	}
	if !s.end.IsZero() {
		d.DurationUS = s.end.Sub(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs)+1)
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	if s.dropped > 0 {
		if d.Attrs == nil {
			d.Attrs = make(map[string]string, 1)
		}
		d.Attrs["dropped_children"] = formatInt(int64(s.dropped))
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.dataLocked())
	}
	return d
}

// PhaseName collapses per-instance span names onto a bounded phase label
// for metrics: "sketch/shard17" → "sketch/shard". Names without a trailing
// index pass through unchanged.
func PhaseName(name string) string {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	return name[:i]
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }
