package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spq/client"
)

func TestTraceTreeAndContext(t *testing.T) {
	tr := NewTrace("", "query")
	ctx := ContextWithSpan(context.Background(), tr.Root())

	ctx2, solve := StartSpan(ctx, "solve")
	if solve == nil {
		t.Fatal("expected live span under traced context")
	}
	_, shard := StartSpan(ctx2, "sketch/shard3")
	shard.SetInt("nodes", 42)
	shard.End()
	solve.End()
	tr.Root().End()

	d := tr.Data()
	if len(d.TraceID) != 16 || d.TraceID != tr.id || d.Name != "query" {
		t.Fatalf("root = %+v", d)
	}
	if len(d.Children) != 1 || d.Children[0].Name != "solve" {
		t.Fatalf("children = %+v", d.Children)
	}
	sh := d.Children[0].Children[0]
	if sh.Name != "sketch/shard3" || sh.Attrs["nodes"] != "42" {
		t.Fatalf("shard span = %+v", sh)
	}
	if sh.DurationUS < 0 {
		t.Fatalf("negative duration %d", sh.DurationUS)
	}
	// JSON round-trip must be lossless for wire propagation.
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back client.TraceSpan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Children[0].Children[0].Attrs["nodes"] != "42" {
		t.Fatalf("round trip lost attrs: %s", b)
	}
}

func TestUntracedContextIsInert(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "solve")
	if sp != nil {
		t.Fatal("expected nil span on untraced context")
	}
	// All nil-span operations must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("got span %v from untraced context", got)
	}
}

func TestSpanChildCap(t *testing.T) {
	tr := NewTrace("", "root")
	for i := 0; i < maxSpanChildren+10; i++ {
		tr.Root().StartChild("c").End()
	}
	d := tr.Data()
	if len(d.Children) != maxSpanChildren {
		t.Fatalf("children = %d, want %d", len(d.Children), maxSpanChildren)
	}
	if d.Attrs["dropped_children"] != "10" {
		t.Fatalf("dropped = %q", d.Attrs["dropped_children"])
	}
}

// TestTraceSpanInstantIsFinished: a finished span shorter than a
// microsecond, such as a memo hit's, encodes as 1 µs and renders with a
// duration, never as running; a span not yet ended still encodes as 0.
func TestTraceSpanInstantIsFinished(t *testing.T) {
	tr := NewTrace("", "query")
	memo := tr.Root().StartChild("memo")
	memo.SetAttr("kind", "validate")
	memo.End()
	tr.mu.Lock()
	memo.end = memo.start
	tr.mu.Unlock()
	tr.Root().StartChild("validate")
	d := tr.Data()
	if got := d.Children[0].DurationUS; got != 1 {
		t.Fatalf("instant span encodes %d µs, want 1", got)
	}
	if got := d.Children[1].DurationUS; got != 0 {
		t.Fatalf("running span encodes %d µs, want 0", got)
	}
	want := "query  (running)\n  memo  0s  kind=validate\n  validate  (running)\n"
	if got := strings.TrimPrefix(d.Render(), "trace "+d.TraceID+"\n"); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	const tp = "abcdef0123456789/remote/dispatch"
	id, parent := ParseTraceParent(tp)
	if id != "abcdef0123456789" || parent != "remote/dispatch" {
		t.Fatalf("ParseTraceParent(%q) = %q, %q", tp, id, parent)
	}
	if id, _ := ParseTraceParent(""); id != "" {
		t.Fatal("empty trace parent must parse to empty id")
	}
}

func TestOnSpanEndFeedsHook(t *testing.T) {
	tr := NewTrace("", "query")
	var mu sync.Mutex
	seen := map[string]int{}
	tr.OnSpanEnd(func(name string, d time.Duration) {
		mu.Lock()
		seen[name]++
		mu.Unlock()
	})
	tr.Root().StartChild("validate").End()
	tr.Root().StartChild("validate").End()
	tr.Root().End()
	if seen["validate"] != 2 || seen["query"] != 1 {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestPhaseName(t *testing.T) {
	for in, want := range map[string]string{
		"sketch/shard17": "sketch/shard",
		"validate":       "validate",
		"solve":          "solve",
		"shard0":         "shard",
	} {
		if got := PhaseName(in); got != want {
			t.Fatalf("PhaseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("spq_test_seconds", "test")
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	// Cumulative semantics: 0.1 catches 0.05 and the boundary value 0.1.
	for _, want := range []string{
		`spq_test_seconds_bucket{le="0.1"} 2`,
		`spq_test_seconds_bucket{le="1"} 3`,
		`spq_test_seconds_bucket{le="10"} 4`,
		`spq_test_seconds_bucket{le="+Inf"} 5`,
		`spq_test_seconds_sum 55.65`,
		`spq_test_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestWriteLabelled covers the labelled family the engine renders its
// per-tenant admission ledger with: sorted deterministic rendering under
// one TYPE header, zero samples kept, and promtext-lintable output with
// quoted label values.
func TestWriteLabelled(t *testing.T) {
	var buf bytes.Buffer
	WriteLabelled(&buf, "spq_tenant_admitted_total", "Admissions by tenant.", "counter", "tenant",
		map[string]int64{"zeta": 1, "acme": 3, `q"x`: 0})
	out := buf.String()
	lintPromText(t, out)
	if n := strings.Count(out, "# TYPE spq_tenant_admitted_total counter"); n != 1 {
		t.Fatalf("want exactly one TYPE header, got %d in:\n%s", n, out)
	}
	acme := strings.Index(out, `spq_tenant_admitted_total{tenant="acme"} 3`)
	zeta := strings.Index(out, `spq_tenant_admitted_total{tenant="zeta"} 1`)
	if acme < 0 || zeta < 0 || !strings.Contains(out, `spq_tenant_admitted_total{tenant="q\"x"} 0`) {
		t.Fatalf("missing rows in:\n%s", out)
	}
	if acme > zeta {
		t.Fatalf("rows not rendered in sorted label order:\n%s", out)
	}
}

// promtext lint: every non-comment line of the exposition must match the
// text-format grammar (metric name, optional label set, float value).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)

func lintPromText(t *testing.T, out string) {
	t.Helper()
	types := map[string]bool{"counter": true, "gauge": true, "histogram": true}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !types[parts[3]] {
				t.Fatalf("bad TYPE line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line fails promtext lint: %q", line)
		}
	}
}

func TestPrometheusTextStableAndParseable(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("spq_phase_seconds", "Phase latency.", "phase")
	v.Observe("solve", 0.05)
	v.Observe("validate", 0.005)

	render := func() string {
		var buf bytes.Buffer
		WriteSample(&buf, "spq_cache_len", "Cache size.", "gauge", 3)
		WriteSample(&buf, "spq_escaped", `a\b`+"\nc", "counter", 0)
		WriteLabelled(&buf, "spq_queries_total", "Total queries.", "counter", "tenant", map[string]int64{"acme": 2, "b": 0})
		r.WritePrometheus(&buf)
		return buf.String()
	}
	out := render()
	lintPromText(t, out)
	if out != render() {
		t.Fatal("exposition not stable across renders")
	}
	for _, want := range []string{
		"# TYPE spq_queries_total counter",
		`spq_queries_total{tenant="acme"} 2`,
		`spq_phase_seconds_bucket{phase="solve",le="0.1"} 1`,
		`spq_phase_seconds_count{phase="validate"} 1`,
		"# HELP spq_cache_len Cache size.\n# TYPE spq_cache_len gauge\nspq_cache_len 3\n",
		`# HELP spq_escaped a\\b\nc`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("spq_x_seconds", "x").Observe(1)
	rec := httptest.NewRecorder()
	MetricsHandler(r.WritePrometheus).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `spq_x_seconds_count 1`) {
		t.Fatalf("body: %s", rec.Body.String())
	}
}

// TestRegistryConcurrency drives every instrument type from many goroutines
// while scraping; meaningful under -race (CI runs the package with -race).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("spq_h_seconds", "h")
	v := r.NewHistogramVec("spq_v_seconds", "v", "phase")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(j) / 100)
				v.Observe([]string{"solve", "validate", "refine"}[j%3], 0.01)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
		}()
	}
	wg.Wait()
	if h.Count() != 8*500 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	lintPromText(t, buf.String())
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("", "query")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Root().StartChild("sketch/shard0")
			sp.SetInt("i", int64(i))
			sp.End()
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Data() // concurrent snapshot while spans mutate
		}()
	}
	wg.Wait()
	if got := len(tr.Data().Children); got != 16 {
		t.Fatalf("children = %d", got)
	}
}

func TestLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Event("http_request", map[string]any{"status": 200, "path": "/v1/queries"})
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("bad json line %q: %v", buf.String(), err)
	}
	if obj["event"] != "http_request" || obj["status"] != float64(200) {
		t.Fatalf("obj = %v", obj)
	}

	buf.Reset()
	l, err = NewLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Event("slow_query", map[string]any{"trace_id": "abc", "tree": "a 1ms\n  b 2ms"})
	out := buf.String()
	if !strings.Contains(out, "event=slow_query") || !strings.Contains(out, "trace_id=abc") {
		t.Fatalf("text line %q", out)
	}
	if !strings.Contains(out, "\n    a 1ms\n      b 2ms\n") {
		t.Fatalf("multiline block not indented: %q", out)
	}
	if _, err := NewLogger(&buf, "yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}
