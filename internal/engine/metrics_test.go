package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spq/internal/core"
	"spq/internal/relation"
)

// scalarSamples parses the unlabelled samples of a /metrics exposition.
func scalarSamples(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // a histogram's _sum
		}
		out[name] = v
	}
	return out
}

// statsKeys decodes a /stats payload into its top-level keys.
func statsKeys(t *testing.T, data []byte) map[string]json.Number {
	t.Helper()
	var raw map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	out := map[string]json.Number{}
	for k, v := range raw {
		n, _ := v.(json.Number)
		out[k] = n
	}
	return out
}

// checkRowsAgree requires every statTable row with a /stats key to show
// the same value on both surfaces.
func checkRowsAgree(t *testing.T, metrics, stats []byte) {
	t.Helper()
	samples, keys := scalarSamples(t, string(metrics)), statsKeys(t, stats)
	for _, r := range statTable {
		got, ok := samples[r.name]
		if !ok {
			t.Fatalf("/metrics has no %s sample", r.name)
		}
		if r.key == "" {
			continue
		}
		if want := keys[r.key].String(); strconv.FormatInt(got, 10) != want {
			t.Fatalf("%s = %d on /metrics, /stats %s = %s", r.name, got, r.key, want)
		}
	}
}

// TestMetricsMatchStats checks every row of the instrument table: its
// /metrics sample equals its /stats value, in one sample taken while
// queries, jobs and a delta are in flight (meaningful under -race), and
// again over HTTP once they finish. It also holds the table to its shape:
// live rows read no function, derived rows do, names are unique, and every
// integer Stats field is a table row or one of the figures Stats derives
// from the labelled and bucketed instruments or the options.
func TestMetricsMatchStats(t *testing.T) {
	names := map[string]bool{}
	filled := map[string]bool{}
	for i, r := range statTable {
		if (i < int(numLiveStats)) != (r.read == nil) {
			t.Fatalf("row %d (%s): live rows and only live rows read no function", i, r.name)
		}
		if names[r.name] || (r.typ != "counter" && r.typ != "gauge") {
			t.Fatalf("row %s: duplicate name or type %q", r.name, r.typ)
		}
		names[r.name], filled[r.key] = true, true
	}
	typ := reflect.TypeFor[Stats]()
	for i := range typ.NumField() {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		switch key {
		case "degraded", "tenants", "solve_time_ms", "max_in_flight", "max_queue":
			continue
		}
		if !filled[key] {
			t.Fatalf("Stats field %s (/stats %q) has no instrument table row", typ.Field(i).Name, key)
		}
	}

	e := New(deltaCatalog(t, 15), nil)
	srv := v1Server(t, e)
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 3; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				opts := deltaCoreOptions()
				opts.Seed = seed
				if _, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: opts}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.ApplyDelta("stocks", &relation.Delta{Set: map[string]map[int]float64{"price": {2: 90}}}); err != nil {
			t.Error(err)
		}
		j, err := e.Submit(Request{Query: deltaQuery, Options: deltaCoreOptions()})
		if err != nil {
			t.Error(err)
			return
		}
		<-j.Done()
		if err := j.Snapshot(0).Err(); err != nil {
			t.Error(err)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := e.sample()
		var metrics bytes.Buffer
		e.writeMetrics(&metrics, s)
		stats, err := json.Marshal(e.statsOf(s))
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAgree(t, metrics.Bytes(), stats)
	}

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	metrics, stats := get("/metrics"), get("/stats")
	checkRowsAgree(t, metrics, stats)
	// The rows hold the values their names promise, not only equal ones.
	s, st := scalarSamples(t, string(metrics)), e.Stats()
	if s["spq_queries_total"] != 7 || st.Queries != 7 || s["spq_deltas_applied_total"] != 1 || st.DeltasApplied != 1 {
		t.Fatalf("queries %d/%d, deltas %d/%d, want 7 and 1", s["spq_queries_total"], st.Queries, s["spq_deltas_applied_total"], st.DeltasApplied)
	}
}

// TestInstrumentsDocumented requires every /stats key and every /metrics
// family to appear, in backquotes, in OPERATIONS.md.
func TestInstrumentsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	e := New(newCatalog(t, 5), nil)
	stats, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range statsKeys(t, stats) {
		names = append(names, k)
	}
	var metrics bytes.Buffer
	e.writeMetrics(&metrics, e.sample())
	for _, line := range strings.Split(metrics.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	for _, n := range names {
		if !bytes.Contains(doc, []byte("`"+n+"`")) && !bytes.Contains(doc, []byte("`"+n+"{")) {
			t.Errorf("OPERATIONS.md does not document %s", n)
		}
	}
}

// laneSamples parses the tenant-labelled samples of a /metrics exposition:
// family, then lane, to value.
func laneSamples(text string) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, `{tenant="`)
		if !ok {
			continue
		}
		lane, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		if out[name] == nil {
			out[name] = map[string]int64{}
		}
		out[name][lane] = v
	}
	return out
}

// TestTenantLedgerMatchesMetrics drives every way a request reaches the
// admission ledger: cancelled waiters that lose the dispatch race, a
// tenant-quota rejection, a MaxJobs refusal and a degraded answer. Then,
// in one sample, every lane must read alike in /stats tenants and in the
// spq_tenant_*_total families (lanes without traffic included), and the
// rejected and degraded totals must be the sums over the lanes.
func TestTenantLedgerMatchesMetrics(t *testing.T) {
	e := New(newCatalog(t, 40), &Options{
		MaxInFlight: 1, MaxQueue: 4, MaxJobs: 1, Parallelism: 1,
		Tenants: []TenantConfig{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1, MaxQueue: 1}, {Name: "idle", Weight: 1}},
	})
	hold := func() {
		t.Helper()
		if err := e.sched.Acquire(context.Background(), ""); err != nil {
			t.Fatal(err)
		}
	}
	seeded := func(seed uint64) *core.Options {
		o := smallCoreOptions()
		o.Seed = seed
		return o
	}

	// Three gold queries lose the dispatch race to their cancellation.
	for seed := uint64(1); seed <= 3; seed++ {
		hold()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := e.Query(ctx, Request{Query: testQuery, Tenant: "gold", Options: seeded(seed)})
			errc <- err
		}()
		waitFor(t, "gold query queued", func() bool { return e.sched.read().waiting == 1 })
		loseDispatchRace(e.sched, "", cancel)
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("lost race: err = %v, want context.Canceled", err)
		}
	}

	// A bronze job queued behind a held slot fills both the job table and
	// bronze's queue: a second job is refused, a query hits the quota.
	hold()
	j, err := e.Submit(Request{Query: testQuery, Tenant: "bronze", Options: seeded(4)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bronze job queued", func() bool { return e.sched.read().waiting == 1 })
	if _, err := e.Submit(Request{Query: testQuery, Tenant: "bronze", Options: seeded(5)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full job table: err = %v, want ErrOverloaded", err)
	}
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Tenant: "bronze", Options: seeded(6)}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("bronze over quota: err = %v, want ErrTenantQuota", err)
	}
	e.sched.Release("")
	<-j.Done()
	if err := j.Snapshot(0).Err(); err != nil {
		t.Fatal(err)
	}

	// A gold answer degraded by its deadline.
	res, err := e.Query(context.Background(), Request{
		Query: testQuery, Tenant: "gold", Timeout: degradeTimeout, Options: degradeOptions(1), Progress: holdFeasible,
	})
	if err != nil || !res.Degraded {
		t.Fatalf("deadline-bound query: err = %v, want a degraded answer", err)
	}

	s := e.sample()
	var metrics bytes.Buffer
	e.writeMetrics(&metrics, s)
	stats, err := json.Marshal(e.statsOf(s))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rejected, Degraded int64
		Tenants            map[string]map[string]int64
	}
	if err := json.Unmarshal(stats, &doc); err != nil {
		t.Fatal(err)
	}
	rows := laneSamples(metrics.String())
	fields := []string{"admitted", "queued", "rejected", "degraded"}
	var rejected, degraded int64
	for lane, l := range doc.Tenants {
		for _, f := range fields {
			name := "spq_tenant_" + f + "_total"
			if got, ok := rows[name][lane]; !ok || got != l[f] {
				t.Errorf("%s{tenant=%q} = %d (present %v), /stats tenants.%s.%s = %d", name, lane, got, ok, lane, f, l[f])
			}
		}
		rejected += l["rejected"]
		degraded += l["degraded"]
	}
	for name, lanes := range rows {
		if len(lanes) != len(doc.Tenants) {
			t.Errorf("%s has %d lanes, /stats tenants %d", name, len(lanes), len(doc.Tenants))
		}
	}
	if rejected != doc.Rejected || degraded != doc.Degraded {
		t.Errorf("lanes sum to %d rejected, %d degraded; /stats rejected %d, degraded %d", rejected, degraded, doc.Rejected, doc.Degraded)
	}
	// The counts this run must have produced, lane by lane.
	for lane, want := range map[string][4]int64{
		"gold":        {1, 4, 0, 1},
		"bronze":      {1, 1, 2, 0},
		DefaultTenant: {4, 4, 0, 0},
		"idle":        {0, 0, 0, 0},
	} {
		for i, f := range fields {
			if got := doc.Tenants[lane][f]; got != want[i] {
				t.Errorf("tenants.%s.%s = %d, want %d", lane, f, got, want[i])
			}
		}
	}
}
