package client_test

import (
	"encoding/json"
	"testing"

	"spq/client"
)

// goldenTrace is a fixed span tree with every shape Render distinguishes:
// attributes (sorted on output), a running span, a dropped_children count,
// durations that round to 10µs (5µs rounds up), and a worker's grafted
// subtree carrying its own trace ID.
func goldenTrace() *client.TraceSpan {
	return &client.TraceSpan{TraceID: "4f1c0a9e2b7d3c85", Name: "query", StartUnixUS: 1700000000000000, DurationUS: 12345,
		Attrs: map[string]string{"method": "summarysearch", "dropped_children": "3"},
		Children: []*client.TraceSpan{
			{Name: "parse", StartUnixUS: 1700000000000010, DurationUS: 42},
			{Name: "solve", StartUnixUS: 1700000000000060, DurationUS: 9876543,
				Attrs: map[string]string{"nodes": "922", "lp_iters": "813"},
				Children: []*client.TraceSpan{
					{Name: "validate", StartUnixUS: 1700000000000100, Attrs: map[string]string{"kind": "memo"}},
				}},
			{Name: "remote/dispatch", StartUnixUS: 1700000000000200, DurationUS: 2000,
				Attrs: map[string]string{"worker": "http://127.0.0.1:9001"},
				Children: []*client.TraceSpan{
					{TraceID: "0123456789abcdef", Name: "query", StartUnixUS: 1700000000000300, DurationUS: 1800,
						Children: []*client.TraceSpan{{Name: "solve", StartUnixUS: 1700000000000400, DurationUS: 5}}},
				}},
		}}
}

// TestTraceSpanRender pins the text rendering byte for byte: what
// `spq -trace-tree` prints and the slow-query log carries.
func TestTraceSpanRender(t *testing.T) {
	const want = "trace 4f1c0a9e2b7d3c85\n" +
		"query  12.35ms  dropped_children=3  method=summarysearch\n" +
		"  parse  40µs\n" +
		"  solve  9.87654s  lp_iters=813  nodes=922\n" +
		"    validate  (running)  kind=memo\n" +
		"  remote/dispatch  2ms  worker=http://127.0.0.1:9001\n" +
		"    query  1.8ms  [trace 0123456789abcdef]\n" +
		"      solve  10µs\n"
	if got := goldenTrace().Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	var nilSpan *client.TraceSpan
	if got := nilSpan.Render(); got != "" {
		t.Fatalf("nil tree rendered %q", got)
	}
}

// TestTraceSpanJSON pins the GET /v1/queries/{id}/trace body of the same
// tree, and that it decodes back to an identical rendering.
func TestTraceSpanJSON(t *testing.T) {
	const want = `{"trace_id":"4f1c0a9e2b7d3c85","name":"query","start_us":1700000000000000,"duration_us":12345,"attrs":{"dropped_children":"3","method":"summarysearch"},"children":[{"name":"parse","start_us":1700000000000010,"duration_us":42},{"name":"solve","start_us":1700000000000060,"duration_us":9876543,"attrs":{"lp_iters":"813","nodes":"922"},"children":[{"name":"validate","start_us":1700000000000100,"duration_us":0,"attrs":{"kind":"memo"}}]},{"name":"remote/dispatch","start_us":1700000000000200,"duration_us":2000,"attrs":{"worker":"http://127.0.0.1:9001"},"children":[{"trace_id":"0123456789abcdef","name":"query","start_us":1700000000000300,"duration_us":1800,"children":[{"name":"solve","start_us":1700000000000400,"duration_us":5}]}]}]}`
	b, err := json.Marshal(goldenTrace())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("json:\n%s\nwant:\n%s", b, want)
	}
	var back client.TraceSpan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Render() != goldenTrace().Render() {
		t.Fatalf("round trip changed the tree:\n%s", back.Render())
	}
}

// TestTraceSpanWalk: Walk visits every span once, parents before children,
// through grafted subtrees, and is inert on a nil tree.
func TestTraceSpanWalk(t *testing.T) {
	var names []string
	goldenTrace().Walk(func(s *client.TraceSpan) { names = append(names, s.Name) })
	want := []string{"query", "parse", "solve", "validate", "remote/dispatch", "query", "solve"}
	if len(names) != len(want) {
		t.Fatalf("walked %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walked %v, want %v", names, want)
		}
	}
	var nilSpan *client.TraceSpan
	nilSpan.Walk(func(*client.TraceSpan) { t.Fatal("nil tree visited") })
}
