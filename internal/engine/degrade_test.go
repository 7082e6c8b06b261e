package engine

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/milp"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// degradeTimeout is the request deadline of the degradation tests.
const degradeTimeout = 400 * time.Millisecond

// holdFeasible is the fault-injection lever, installed as the request's
// progress hook: it holds the evaluation at every feasible candidate until
// degradeTimeout has passed since the evaluation started. The engine set its
// deadline before that start, so the deadline has passed too, and the
// evaluation cannot end on its own however fast it gets: only the budget
// stops it, and it has to surface the anytime incumbent.
func holdFeasible(p core.Progress) {
	if p.Feasible {
		time.Sleep(degradeTimeout - p.Elapsed)
	}
}

// degradeOptions keeps SummarySearch iterating past its first feasible
// candidate on top of that: a near-zero Epsilon (the gap can never reach
// 1e-9) and an enormous MaxM (no scenario ceiling).
func degradeOptions(parallelism int) *core.Options {
	return &core.Options{
		Seed:        1,
		ValidationM: 2000,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        1 << 20,
		Epsilon:     1e-9,
		Parallelism: parallelism,
	}
}

// TestEngineDeadlineDegradation is the fault-injection test: an effectively
// unbounded evaluation under a tight request deadline must come back as a
// degraded feasible package — not a timeout error — at every worker count,
// and the package must re-validate bit-identically under the standalone
// out-of-sample validation protocol (the snapshot check).
func TestEngineDeadlineDegradation(t *testing.T) {
	cat := newCatalog(t, 40)
	for _, workers := range []int{1, 2, 8} {
		e := New(cat, &Options{Parallelism: workers})
		opts := degradeOptions(workers)
		res, err := e.Query(context.Background(), Request{
			Query:    testQuery,
			Timeout:  degradeTimeout,
			Options:  opts,
			Progress: holdFeasible,
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v, want degraded result", workers, err)
		}
		if !res.Degraded {
			t.Fatalf("workers=%d: result not marked degraded (m=%d, total=%v)", workers, res.M, res.TotalTime)
		}
		if !res.Feasible {
			t.Fatalf("workers=%d: degraded result infeasible", workers)
		}
		if len(res.Multiplicities()) == 0 {
			t.Fatalf("workers=%d: degraded result has an empty package", workers)
		}
		if math.IsInf(res.EpsUpper, 0) || math.IsNaN(res.EpsUpper) {
			t.Fatalf("workers=%d: degraded result has no finite gap: %v", workers, res.EpsUpper)
		}

		// Snapshot validation: rebuild the SILP from the parsed query and
		// the filtered relation the package indexes, and re-run the §3.2
		// out-of-sample validation standalone. The incumbent was adopted
		// from a validation round with these exact options, so feasibility,
		// objective, and surpluses must reproduce exactly.
		silp, err := translate.Build(res.Query, res.Rel, nil)
		if err != nil {
			t.Fatalf("workers=%d: rebuild SILP: %v", workers, err)
		}
		val, err := core.Validate(context.Background(), silp, res.X, degradeOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: re-validate: %v", workers, err)
		}
		if !val.Feasible {
			t.Fatalf("workers=%d: degraded package fails re-validation", workers)
		}
		if val.Objective != res.Objective {
			t.Fatalf("workers=%d: re-validated objective %v != reported %v", workers, val.Objective, res.Objective)
		}
		if len(val.Surpluses) != len(res.Surpluses) {
			t.Fatalf("workers=%d: surplus count %d != %d", workers, len(val.Surpluses), len(res.Surpluses))
		}
		for k := range val.Surpluses {
			if val.Surpluses[k] != res.Surpluses[k] {
				t.Fatalf("workers=%d: surplus %d: %v != %v", workers, k, val.Surpluses[k], res.Surpluses[k])
			}
		}

		// A budget-cut answer reflects load, not the query: it must never
		// be served from the result cache to a later identical request.
		res2, err := e.Query(context.Background(), Request{
			Query:    testQuery,
			Timeout:  degradeTimeout,
			Options:  degradeOptions(workers),
			Progress: holdFeasible,
		})
		if err != nil {
			t.Fatalf("workers=%d: second query: %v", workers, err)
		}
		if res2.ResultCacheHit {
			t.Fatalf("workers=%d: degraded result was cached", workers)
		}
	}
}

// TestEngineDegradedJobWire drives the same fault through the job manager:
// the v1 wire result must carry degraded=true, a non-empty feasible
// package, and the achieved gap.
func TestEngineDegradedJobWire(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{Parallelism: 1})
	j, err := e.Submit(Request{
		Query:    testQuery,
		Timeout:  degradeTimeout,
		Options:  degradeOptions(1),
		Progress: holdFeasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := j.Poll(context.Background(), 0, 0)
	if snap.Error != nil {
		t.Fatalf("job failed: %+v", snap.Error)
	}
	wres := snap.Result
	if wres == nil {
		t.Fatal("job finished without a result")
	}
	if !wres.Degraded {
		t.Fatalf("wire result not degraded: %+v", wres)
	}
	if !wres.Feasible || len(wres.Package) == 0 {
		t.Fatalf("degraded wire result infeasible or empty: %+v", wres)
	}
	if wres.Gap <= 0 {
		t.Fatalf("degraded wire result has no gap: %+v", wres)
	}
}

// slowGain is a gain distribution whose every sampled value costs 200 µs
// once slow is set.
type slowGain struct {
	dist.Dist
	slow *atomic.Bool
}

func (d slowGain) Sample(s *rng.Stream) float64 {
	if d.slow.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	return d.Dist.Sample(s)
}

// TestQueryDeadlineInsidePhaseDegrades: once the first feasible candidate
// is reported, realisation slows so far that the request deadline expires
// inside a phase (validating the next candidate) rather than between
// rounds, where the time budget is checked. Engine.Query and Submit must
// both answer with the same degraded feasible package, the incumbent; a
// deadline that expires before any feasible candidate must fail with
// timeout on both.
func TestQueryDeadlineInsidePhaseDegrades(t *testing.T) {
	const query = `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 300 AND
		SUM(gain) <= 6 WITH PROBABILITY >= 0.9
		MAXIMIZE EXPECTED SUM(gain)`
	// run answers the query on a fresh catalog and engine (no realised row
	// or plan carries over), slow from the start or from the first feasible
	// report on, through Engine.Query or a job.
	run := func(slowFromStart, submit bool) (*client.QueryResult, *client.Error) {
		var slow atomic.Bool
		slow.Store(slowFromStart)
		cat := gainCatalog(t, 40, func(d dist.Dist) dist.Dist { return slowGain{d, &slow} })
		e := New(cat, &Options{Parallelism: 1})
		req := Request{
			Query:   query,
			Timeout: degradeTimeout,
			Options: degradeOptions(1),
			Progress: func(p core.Progress) {
				if p.Feasible {
					slow.Store(true)
				}
			},
		}
		if !submit {
			res, err := e.Query(context.Background(), req)
			if err != nil {
				return nil, errToWire(err)
			}
			return resultToWire(res, 0), nil
		}
		j, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		snap := j.Poll(context.Background(), 0, 0)
		return snap.Result, snap.Error
	}

	direct, derr := run(false, false)
	job, jerr := run(false, true)
	for _, c := range []struct {
		path string
		res  *client.QueryResult
		err  *client.Error
	}{{"Engine.Query", direct, derr}, {"Submit", job, jerr}} {
		if c.err != nil {
			t.Fatalf("%s: %s (%s), want a degraded package", c.path, c.err.Code, c.err.Message)
		}
		if !c.res.Degraded || !c.res.Feasible || len(c.res.Package) == 0 {
			t.Fatalf("%s: want a degraded feasible package, got %+v", c.path, c.res)
		}
	}
	if direct.Objective != job.Objective || !slices.Equal(direct.Package, job.Package) {
		t.Fatalf("Engine.Query served %v at %v, Submit %v at %v", direct.Package, direct.Objective, job.Package, job.Objective)
	}

	for _, submit := range []bool{false, true} {
		if res, err := run(true, submit); err == nil || err.Code != client.CodeTimeout {
			t.Fatalf("submit=%v, slow before any feasible candidate: got %+v, error %+v; want code %s", submit, res, err, client.CodeTimeout)
		}
	}
}

// TestJobDegradedIgnoresShardPackages: a sketch shard's package indexes a
// medoid view whose multiplicity bounds are raised to group capacity, so it
// is no package of the query. A job whose deadline passes while it holds at
// a shard's feasible report must not serve that package as its degraded
// answer: it fails, or serves a package that respects REPEAT 0 and passes
// validation against the query itself.
func TestJobDegradedIgnoresShardPackages(t *testing.T) {
	cat := newCatalog(t, 60)
	query := strings.Replace(testQuery, "FROM stocks", "FROM stocks REPEAT 0", 1)
	var once sync.Once
	e := New(cat, &Options{Parallelism: 1, ResultCacheSize: -1})
	j, err := e.Submit(Request{
		Query:   query,
		Method:  "sketch",
		Timeout: degradeTimeout,
		Options: degradeOptions(1),
		Sketch:  &sketch.Options{GroupSize: 8, MaxCandidates: 24, Shards: 2},
		Progress: func(p core.Progress) {
			if p.Feasible && strings.HasPrefix(p.Phase, "sketch/shard") {
				once.Do(func() { time.Sleep(degradeTimeout - p.Elapsed) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("sketch job did not finish")
	}
	snap := j.Poll(context.Background(), 0, 0)
	if snap.Error != nil {
		return // no package of the query within the budget: a failure is correct
	}
	res := snap.Result
	silp, err := translate.Build(spaql.MustParse(query), cat["stocks"], nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, silp.N)
	for _, pt := range res.Package {
		if pt.Count > 1 {
			t.Fatalf("served tuple %d ×%d under REPEAT 0 (degraded=%v): %+v", pt.Tuple, pt.Count, res.Degraded, res.Package)
		}
		x[pt.Tuple] = float64(pt.Count)
	}
	val, err := core.Validate(context.Background(), silp, x, degradeOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible && !val.Feasible {
		t.Fatalf("served package %+v reported feasible but fails validation: surpluses %v", res.Package, val.Surpluses)
	}
}

// TestEngineTenantLabelDeterminism pins the cache-key purity invariant: the
// tenant label (and the class label, when its budget does not bind) must
// not reach the result key or change the answer. The same deterministic
// query from two tenants is answered from the result cache the second
// time, and a fresh engine queried under the other tenant produces the
// bit-identical package.
func TestEngineTenantLabelDeterminism(t *testing.T) {
	cat := newCatalog(t, 15)
	tenants := []TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}
	classes := map[string]ClassBudget{"batch": {TimeLimit: time.Hour}}

	e1 := New(cat, &Options{Tenants: tenants, Classes: classes})
	ra, err := e1.Query(context.Background(), Request{Query: testQuery, Tenant: "a", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// Same query, different tenant and a non-binding class: must be served
	// from the result cache (labels are not part of the key).
	rb, err := e1.Query(context.Background(), Request{Query: testQuery, Tenant: "b", Class: "batch", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !rb.ResultCacheHit {
		t.Fatal("tenant/class label broke result-cache identity")
	}
	if rb.Objective != ra.Objective {
		t.Fatalf("objective changed across tenants: %v vs %v", rb.Objective, ra.Objective)
	}

	// A fresh engine queried under tenant "b" first: bit-identical package.
	e2 := New(cat, &Options{Tenants: tenants})
	rc, err := e2.Query(context.Background(), Request{Query: testQuery, Tenant: "b", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Objective != ra.Objective {
		t.Fatalf("objective depends on tenant/scheduler state: %v vs %v", rc.Objective, ra.Objective)
	}
	ma, mc := ra.Multiplicities(), rc.Multiplicities()
	if len(ma) != len(mc) {
		t.Fatalf("package size differs: %v vs %v", ma, mc)
	}
	for tuple, count := range ma {
		if mc[tuple] != count {
			t.Fatalf("package differs at tuple %d: %d vs %d", tuple, count, mc[tuple])
		}
	}
}

// TestNodeCappedNaiveNamesItsBudget: a Naïve answer whose MILP solve stops
// at SolverNodes after finding a package repeats run to run: it is cached,
// not degraded, and its wire result names node_cap, from the cache too. On
// the parity table of TestTimeCappedIncumbentDegrades, the root LP rounds
// to the 20-tuple package and the proof outlasts 50 nodes.
func TestNodeCappedNaiveNamesItsBudget(t *testing.T) {
	const n = 41
	rel := relation.New("tokens", n)
	w, one := make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], one[i] = 2, 1
	}
	if err := rel.AddDet("w", w); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("one", one); err != nil {
		t.Fatal(err)
	}
	e := New(testCatalog{"tokens": rel}, &Options{Parallelism: 1})
	req := Request{
		Query:   `SELECT PACKAGE(*) FROM tokens REPEAT 0 SUCH THAT SUM(w) <= 40.5 MAXIMIZE SUM(one)`,
		Method:  "naive",
		Options: &core.Options{Seed: 1, ValidationM: 100, MaxM: 10, SolverNodes: 50},
	}
	for _, cached := range []bool{false, true} {
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible || res.Objective != 20 || res.Degraded || res.ResultCacheHit != cached {
			t.Fatalf("feasible=%t objective=%v degraded=%t cache hit=%t, want the 20-tuple package, cache hit %t",
				res.Feasible, res.Objective, res.Degraded, res.ResultCacheHit, cached)
		}
		if stop := resultToWire(res, 0).Stop; stop != "node_cap" {
			t.Fatalf("cache hit %t: wire stop %q, want node_cap", cached, stop)
		}
	}
}

// TestTimeCappedIncumbentDegrades: a MILP solve that runs out of
// SolverTime after finding a package makes a load-dependent answer, whether
// it is a Naïve round or the x(0) solve that answers a query with no
// probabilistic constraint. Under an engine-applied budget (here the request
// deadline) the answer is served degraded, and a second identical request is
// not answered from the result cache. The table is a parity problem: 41
// tuples weighing 2 under a budget of 40.5. The root LP takes 20¼ tuples and
// rounds to a package of 20 at once, and proving that no better package
// exists enumerates more nodes than the cap allows.
func TestTimeCappedIncumbentDegrades(t *testing.T) {
	const n = 41
	rel := relation.New("tokens", n)
	w, one := make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], one[i] = 2, 1
	}
	if err := rel.AddDet("w", w); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("one", one); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"naive", "summarysearch"} {
		e := New(testCatalog{"tokens": rel}, &Options{Parallelism: 1})
		req := func() Request {
			return Request{
				Query:   `SELECT PACKAGE(*) FROM tokens REPEAT 0 SUCH THAT SUM(w) <= 40.5 MAXIMIZE SUM(one)`,
				Method:  method,
				Timeout: time.Minute,
				Options: &core.Options{Seed: 1, ValidationM: 100, MaxM: 10, SolverTime: 200 * time.Millisecond, SolverNodes: 1 << 30},
			}
		}
		res, err := e.Query(context.Background(), req())
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !res.Feasible || res.Objective != 20 {
			t.Fatalf("%s: feasible=%t objective=%v, want the 20-tuple package", method, res.Feasible, res.Objective)
		}
		if method == "naive" && (len(res.Iterations) != 1 || res.Iterations[0].SolverStop != milp.StopTimeCap) {
			t.Fatalf("naive: iterations %+v, want one round stopped by its time cap", res.Iterations)
		}
		if !res.Degraded {
			t.Fatalf("%s: a time-capped answer under the request deadline is not degraded", method)
		}
		if stop := resultToWire(res, 0).Stop; stop != "time_cap" {
			t.Fatalf("%s: wire stop %q, want time_cap", method, stop)
		}
		again, err := e.Query(context.Background(), req())
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if again.ResultCacheHit {
			t.Fatalf("%s: a time-capped answer was served from the result cache", method)
		}
	}
}

// TestShardTimeCapReachesStop: a time cap inside one sketch shard's solve
// changes the candidates the refine sees, so it marks the answer even when
// the refine itself finishes inside its own, fresh budget. The progress hook
// sleeps past TimeLimit on the first shard report; the answer names the time
// cap, HitLimit reads it, and the repeated request solves again instead of
// being served from the result cache.
func TestShardTimeCapReachesStop(t *testing.T) {
	e := New(newCatalog(t, 80), &Options{Parallelism: 1})
	const limit = 200 * time.Millisecond
	var once sync.Once
	req := func() Request {
		opts := smallCoreOptions()
		opts.TimeLimit = limit
		return Request{
			Query:   testQuery,
			Method:  "sketch",
			Options: opts,
			Sketch:  &sketch.Options{GroupSize: 8, MaxCandidates: 32, Shards: 2, Seed: 5},
			Progress: func(p core.Progress) {
				if strings.HasPrefix(p.Phase, "sketch/shard") {
					once.Do(func() { time.Sleep(limit + 50*time.Millisecond) })
				}
			},
		}
	}
	r := req()
	res, err := e.Query(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch == nil || res.Sketch.FellBack {
		t.Fatalf("sketch stats %+v, want a refined answer", res.Sketch)
	}
	if stop := res.Stop(); stop != milp.StopTimeCap {
		t.Fatalf("stop = %v, want time_cap from the cut shard", stop)
	}
	if !res.HitLimit(r.Options) {
		t.Fatal("HitLimit misses the time cap of a shard solve")
	}
	again, err := e.Query(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if again.ResultCacheHit {
		t.Fatal("an answer whose shard was cut by time was served from the result cache")
	}
}
