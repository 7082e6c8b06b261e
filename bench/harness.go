package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/relation"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/stream"
)

// outcome is what one execution of one op produced.
type outcome struct {
	lat  time.Duration
	fail string // why the op counts as failed; "" while it has not

	// The answer, for ops that end in a query.
	feasible  bool
	objective float64
	pkg       []client.PackageTuple // base-relation tuples, ascending
	hit       bool                  // served from the result cache
	planHit   bool
	warm      bool // served by the warm re-solve path
	waitMS    float64

	// Engine-API ops only: the pinned view X indexes, and the solution with
	// its solver counters. HTTP ops carry neither.
	rel   *relation.Relation
	x     []float64
	query *spaql.Query
	sol   *core.Solution
	sk    *sketch.Stats

	// state names the version of everything the query reads, as of the
	// answer: equal states and equal packages need validating only once.
	// pristine says no delta has touched any of it yet.
	state    string
	pristine bool

	deltaLat time.Duration // the ApplyDelta share of lat
}

// pkgKey renders the package canonically; equal keys mean equal packages.
func (o *outcome) pkgKey() string {
	var sb strings.Builder
	for _, pt := range o.pkg {
		fmt.Fprintf(&sb, "%d:%d,", pt.Tuple, pt.Count)
	}
	return sb.String()
}

// fingerprint is what must repeat exactly when the same op runs again.
func (o *outcome) fingerprint(withCounters bool) string {
	fp := fmt.Sprintf("fail=%q feas=%t obj=%016x pkg=%s", o.fail, o.feasible, math.Float64bits(o.objective), o.pkgKey())
	if withCounters && o.sol != nil {
		fp += fmt.Sprintf(" m=%d z=%d nodes=%d lp=%d hit=%t warm=%t", o.sol.M, o.sol.Z, o.sol.MILPNodes, o.sol.LPIters, o.hit, o.warm)
	}
	return fp
}

func refusal(err error) bool {
	var apiErr *client.Error
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case client.CodeOverloaded, client.CodeTenantQuota, client.CodeDegradedUnavailable:
			return true
		}
	}
	return errors.Is(err, engine.ErrOverloaded) || errors.Is(err, engine.ErrTenantQuota) || errors.Is(err, engine.ErrDegraded)
}

func failureOf(err error) string {
	if refusal(err) {
		return "refused: " + err.Error()
	}
	return "error: " + err.Error()
}

// execOp runs one op against the instance and times it. Building the op's
// inputs (the delta) happens before the clock starts.
func execOp(ctx context.Context, in *instance, p *plan, cl, index int, o *op, seed uint64, tr *tracer) (out outcome) {
	var delta *relation.Delta
	if o.kind != kindQuery && o.kind != kindCold {
		var err error
		if delta, err = makeDelta(in, o, seed, index); err != nil {
			out.fail = "error: building delta: " + err.Error()
			return out
		}
	}
	opID := cl*1_000_000 + index
	root := tr.start("op."+o.kind, 0, opID)
	start := time.Now()
	defer func() {
		out.lat = time.Since(start)
		tr.end(root)
	}()

	if in.srv != nil {
		execHTTP(ctx, in, p, cl, o, delta, &out, tr, root, opID)
		return out
	}
	if delta != nil {
		sp := tr.start("engine.ApplyDelta", root, opID)
		_, err := in.eng.ApplyDelta(o.table, delta)
		tr.end(sp)
		out.deltaLat = time.Since(start)
		if err != nil {
			out.fail = failureOf(err)
			return out
		}
	}
	req := o.tmpl.request(o.seed)
	sp := tr.start("engine.Query", root, opID)
	res, err := in.eng.Query(ctx, req)
	tr.end(sp)
	if err != nil {
		out.fail = failureOf(err)
		return out
	}
	out.feasible, out.objective = res.Feasible, res.Objective
	out.hit, out.planHit, out.warm = res.ResultCacheHit, res.CacheHit, res.WarmResolve
	out.waitMS = float64(res.Wait) / float64(time.Millisecond)
	out.rel, out.x, out.query, out.sol, out.sk = res.Rel, res.X, res.Query, res.Solution, res.Sketch
	switch {
	case res.Degraded:
		out.fail = "degraded"
	case res.HitLimit(req.Options):
		out.fail = "hit_limit"
	}
	return out
}

func execHTTP(ctx context.Context, in *instance, p *plan, cl int, o *op, delta *relation.Delta, out *outcome, tr *tracer, root, opID int) {
	c := in.clients[cl]
	if o.kind == kindDelta {
		sp := tr.start("client.ApplyDelta", root, opID)
		_, err := c.ApplyDelta(ctx, o.table, &client.DeltaRequest{Set: delta.Set})
		tr.end(sp)
		if err != nil {
			out.fail = failureOf(err)
		}
		return
	}
	sp := tr.start("client.Run", root, opID)
	job, err := c.Run(ctx, o.tmpl.submit(o.seed, p.tenants[cl]))
	tr.end(sp)
	if err == nil {
		err = job.Err()
	}
	if err != nil {
		out.fail = failureOf(err)
		return
	}
	r := job.Result
	out.feasible, out.objective, out.pkg = r.Feasible, r.Objective, r.Package
	out.hit, out.planHit, out.waitMS = r.ResultCacheHit, r.PlanCacheHit, float64(r.WaitMS)
	if r.Degraded {
		// The engine clamps every evaluation to its deadline, so a node or
		// time limit that binds surfaces as a degraded answer.
		out.fail = "degraded"
	}
}

// readState renders the delta epochs of every attribute the template reads,
// and of the table's membership. Deltas to other columns leave it unchanged.
func readState(rel *relation.Relation, t *template) (state string, pristine bool) {
	var sb strings.Builder
	pristine = true
	for _, a := range t.attrs {
		col, member := rel.ColumnEpoch(a)
		fmt.Fprintf(&sb, "%d/%d,", col, member)
		pristine = pristine && col == 0 && member == 0
	}
	return sb.String(), pristine
}

// packageOf maps a solution vector over a view to base-relation tuples.
func packageOf(rel *relation.Relation, x []float64) []client.PackageTuple {
	var pkg []client.PackageTuple
	for i, xi := range x {
		if xi > 0 {
			pkg = append(pkg, client.PackageTuple{Tuple: rel.OrigIndex(i), Count: int(xi + 0.5)})
		}
	}
	sort.Slice(pkg, func(a, b int) bool { return pkg[a].Tuple < pkg[b].Tuple })
	return pkg
}

// counts are the exact counters of one round's timed phase.
type counts map[string]int64

// counterSnapshot reads every process-wide or engine-wide counter the
// harness differences around a timed phase.
func counterSnapshot(eng *engine.Engine) counts {
	st := eng.Stats()
	ds := relation.DeltaStats()
	sc := stream.Counters()
	return counts{
		"engine.queries": st.Queries, "engine.failures": st.Failures, "engine.rejected": st.Rejected,
		"engine.plan_hits": st.CacheHits, "engine.plan_misses": st.CacheMisses,
		"engine.result_hits": st.ResultCacheHits, "engine.result_misses": st.ResultCacheMisses,
		"engine.sketch_queries": st.SketchQueries, "engine.shard_solves": st.ShardSolves,
		"engine.degraded": st.Degraded, "engine.deltas_applied": st.DeltasApplied,
		"engine.results_retained": st.ResultsRetained, "engine.results_invalidated": st.ResultsInvalidated,
		"engine.plans_rebased": st.PlansRebased, "engine.warm_resolves": st.WarmResolves,
		"milp.solves": st.MilpSolves, "milp.nodes": st.MilpNodes,
		"lp.iters": st.LpIters, "lp.warm_starts": st.LpWarmStarts, "lp.degen_pivots": st.LpDegenPivots,
		"lp.bound_flips": st.LpBoundFlips, "milp.presolve_rows": st.PresolveRows, "milp.presolve_cols": st.PresolveCols,
		"relation.deltas": ds.DeltasApplied, "relation.cells_patched": ds.CellsPatched,
		"relation.tuples_deleted": ds.TuplesDeleted, "relation.parts_retained": ds.PartitionsRetained,
		"relation.parts_patched": ds.PartitionsPatched, "relation.parts_rebuilt": ds.PartitionsRebuilt,
		"relation.shards_rebuilt": ds.ShardsRebuilt, "relation.shards_retained": ds.ShardsRetained,
		"relation.stale_views": ds.StaleViews,
		"stream.blocks":        sc.BlocksGenerated, "stream.values": sc.ValuesGenerated,
		"stream.pushdown_kept": sc.PushdownKept, "stream.pushdown_filtered": sc.PushdownFiltered,
		"stream.summary_patched": sc.SummaryTuplesPatched, "stream.summary_reused": sc.SummaryTuplesReused,
	}
}

func (c counts) minus(before counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// roundResult is one round: set-up, timed phase, exact counters.
type roundResult struct {
	setup    time.Duration
	wall     time.Duration
	outcomes [][]outcome // per client, per op
	counts   counts
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
	cpu      time.Duration
	peakHeap uint64
}

// runRound builds a fresh instance and runs every client's script once.
func runRound(p *plan, seed uint64, tr *tracer, sampleHeap bool) (*roundResult, *instance, error) {
	rr := &roundResult{}
	runtime.GC()
	t0 := time.Now()
	sp := tr.start("setup", 0, -1)
	in, err := p.setup(tr)
	tr.end(sp)
	rr.setup = time.Since(t0)
	if err != nil {
		if in != nil {
			in.close()
		}
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()

	before := counterSnapshot(in.eng)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	rr.outcomes = make([][]outcome, len(p.scripts))
	ctx := context.Background()
	var wg sync.WaitGroup
	var heapMu sync.Mutex
	phase := tr.start("timed_phase", 0, -1)
	start := time.Now()
	for c, script := range p.scripts {
		rr.outcomes[c] = make([]outcome, len(script))
		wg.Add(1)
		go func(c int, script []op) {
			defer wg.Done()
			var ms runtime.MemStats
			for i := range script {
				rr.outcomes[c][i] = execOp(ctx, in, p, c, i, &script[i], seed, tr)
				if t := script[i].tmpl; t != nil {
					o := &rr.outcomes[c][i]
					o.state, o.pristine = readState(in.cat[t.table], t)
				}
				if sampleHeap {
					runtime.ReadMemStats(&ms)
					heapMu.Lock()
					if ms.HeapAlloc > rr.peakHeap {
						rr.peakHeap = ms.HeapAlloc
					}
					heapMu.Unlock()
				}
			}
		}(c, script)
	}
	wg.Wait()
	rr.wall = time.Since(start)
	tr.end(phase)
	rr.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	rr.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	rr.gcCycles = ms1.NumGC - ms0.NumGC
	rr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	rr.counts = counterSnapshot(in.eng).minus(before)

	// Engine-API answers carry a vector over a view; render the package
	// once, outside the timed span, so both APIs compare the same way.
	for c := range rr.outcomes {
		for i := range rr.outcomes[c] {
			if o := &rr.outcomes[c][i]; o.rel != nil {
				o.pkg = packageOf(o.rel, o.x)
			}
		}
	}
	return rr, in, nil
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// spread is (max − min) ÷ median: how far the rounds of one run disagree.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}

// latencyStats summarises one set of per-op latencies in milliseconds.
type latencyStats struct {
	p50, p90, sumMS float64
	n               int
}

func summarise(lats []float64) latencyStats {
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	st := latencyStats{p50: quantile(s, 0.5), p90: quantile(s, 0.9), n: len(s)}
	for _, v := range s {
		st.sumMS += v
	}
	return st
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is everything one run of one workload found.
type runReport struct {
	workload  string
	seed      uint64
	rounds    int
	ops       int
	clients   int
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   map[string]metric
	order     []string
	spreads   map[string]float64
	guardErr  error
}

func (r *runReport) set(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runReport) correct() bool { return r.failed == 0 && r.guardErr == nil }

// capRounds is how many of the workload's fixed rounds fit the measuring
// time, judged by the first round. The round count is part of the estimator
// (a minimum over more rounds is lower), so it is the workload's constant and
// the time only a cap: on the reference host it leaves a fifth to spare and
// never binds. Never fewer than three: a minimum over fewer does not shed
// interference. seconds <= 0 means no cap.
func capRounds(fixed, seconds int, first time.Duration) int {
	if seconds <= 0 {
		return fixed
	}
	fit := int(float64(seconds) / first.Seconds())
	return min(fixed, max(3, fit))
}

// measure runs the untraced rounds of one workload and reduces them to the
// end-to-end metrics.
func measure(def workloadDef, sz sizes, seed uint64, seconds int) (*runReport, error) {
	p := def.build(sz, seed)
	chk := newChecker(sz, p)
	rep := &runReport{
		workload: def.name, seed: seed, ops: p.opCount(), clients: len(p.scripts),
		metrics: map[string]metric{}, spreads: map[string]float64{},
	}
	var rounds []*roundResult
	want := p.rounds
	for r := 0; r < want; r++ {
		rr, in, err := runRound(p, seed, nil, false)
		if err != nil {
			return nil, err
		}
		chk.checkRound(in, p, rr, r, rep)
		in.close()
		rounds = append(rounds, rr)
		if r == 0 {
			want = capRounds(p.rounds, seconds, rr.setup+rr.wall)
			if want < p.rounds {
				rep.notes = append(rep.notes, fmt.Sprintf("%d rounds instead of the workload's %d: the first took %.1f s of the %d s this run may measure", want, p.rounds, (rr.setup+rr.wall).Seconds(), seconds))
			}
		}
	}
	rep.rounds = len(rounds)
	rep.guardErr = guardRounds(p, rounds)
	reduce(p, rounds, rep)
	chk.finish(rep)
	return rep, nil
}

// guardRounds enforces determinism: on single-client workloads every op's
// answer and counters and every round-level count must repeat exactly; with
// two interleaved clients answers must still repeat, counts within tolerance.
func guardRounds(p *plan, rounds []*roundResult) error {
	exact := p.tolerance == 0
	for r := 1; r < len(rounds); r++ {
		for c, script := range p.scripts {
			for i := range script {
				a, b := &rounds[0].outcomes[c][i], &rounds[r].outcomes[c][i]
				if fa, fb := a.fingerprint(exact), b.fingerprint(exact); fa != fb {
					return fmt.Errorf("determinism guard: op %d %s differs between round 0 and round %d:\n  %s\n  %s", i, &script[i], r, fa, fb)
				}
			}
		}
		for name, v0 := range rounds[0].counts {
			v := rounds[r].counts[name]
			// Interleaving reorders LRU evictions, so a small count may move
			// by a few ops; the tolerance is a share of the larger of the
			// count and the op list.
			if diff := math.Abs(float64(v - v0)); diff > p.tolerance*math.Max(math.Abs(float64(v0)), float64(p.opCount())) {
				return fmt.Errorf("determinism guard: count %s is %d in round 0 and %d in round %d", name, v0, v, r)
			}
		}
	}
	return nil
}

// reduce turns the rounds into the seven end-to-end metrics. Latency is the
// minimum over rounds of the same op: the work is identical, interference
// only ever adds.
func reduce(p *plan, rounds []*roundResult, rep *runReport) {
	var best []float64 // per op, ms
	perRound := make([][]float64, len(rounds))
	for c, script := range p.scripts {
		for i := range script {
			lo := math.Inf(1)
			for r, rr := range rounds {
				if o := &rr.outcomes[c][i]; o.fail == "" {
					lo = math.Min(lo, ms(o.lat))
					perRound[r] = append(perRound[r], ms(o.lat))
				}
			}
			if !math.IsInf(lo, 1) {
				best = append(best, lo)
			}
		}
	}
	var setups, walls, allocs []float64
	for _, rr := range rounds {
		setups = append(setups, rr.setup.Seconds())
		walls = append(walls, rr.wall.Seconds())
		allocs = append(allocs, float64(rr.allocB)/float64(p.opCount())/1e6)
	}
	st := summarise(best)
	qps := func(st latencyStats, wall float64) float64 {
		if len(p.scripts) > 1 {
			return float64(p.opCount()) / wall
		}
		return float64(st.n) / (st.sumMS / 1000)
	}
	rep.set("setup_s", minOf(setups), "s")
	rep.set("query_p50_ms", st.p50, "ms")
	rep.set("query_p90_ms", st.p90, "ms")
	rep.set("queries_per_s", qps(st, minOf(walls)), "1/s")
	rep.set("alloc_mb_per_query", median(allocs), "MB")

	var p50s, p90s, rates []float64
	for r := range rounds {
		rs := summarise(perRound[r])
		p50s, p90s, rates = append(p50s, rs.p50), append(p90s, rs.p90), append(rates, qps(rs, walls[r]))
	}
	rep.spreads["setup_s"] = spread(setups)
	rep.spreads["query_p50_ms"] = spread(p50s)
	rep.spreads["query_p90_ms"] = spread(p90s)
	rep.spreads["queries_per_s"] = spread(rates)
	rep.spreads["alloc_mb_per_query"] = spread(allocs)
	c0 := rounds[0].counts
	rep.notes = append(rep.notes, fmt.Sprintf("round 0 counts: result hits %d misses %d, warm re-solves %d, deltas %d, B&B nodes %d, LP iterations %d",
		c0["engine.result_hits"], c0["engine.result_misses"], c0["engine.warm_resolves"], c0["engine.deltas_applied"], c0["milp.nodes"], c0["lp.iters"]))
	rep.notes = append(rep.notes, fmt.Sprintf("latency samples: %d ops x %d rounds = %d pooled; timed phase %.2f s per round (min)", st.n, len(rounds), st.n*len(rounds), minOf(walls)))
}
