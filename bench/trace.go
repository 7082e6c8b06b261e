package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call from the harness into
// one layer of the program. Spans of one op share its op id; set-up and
// kernel spans carry op -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// spanTotalMS sums the durations of every span with the given name.
func spanTotalMS(t *tracer, name string) float64 {
	total := int64(0)
	for _, s := range t.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
		}
	}
	return float64(total) / 1e6
}

// nameTotal aggregates the spans of one name. Self time is a span's duration
// minus the part its children cover.
type nameTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) byName() []nameTotal {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNS - s.StartNS
	}
	agg := map[string]*nameTotal{}
	var order []string
	for _, s := range t.spans {
		a, ok := agg[s.Name]
		if !ok {
			a = &nameTotal{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		d := s.EndNS - s.StartNS
		a.Count++
		a.TotalMS += float64(d) / 1e6
		a.SelfMS += float64(d-children[s.ID]) / 1e6
	}
	out := make([]nameTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// traceFile is what -trace 1 leaves on disk.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Host     string      `json:"host"`
	ByName   []nameTotal `json:"by_name"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, t *tracer) error {
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: hostDescriptor(), ByName: t.byName(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
