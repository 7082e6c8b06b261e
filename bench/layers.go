package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/milp"
	"spq/internal/relation"
	"spq/internal/resultcache"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/stream"
	"spq/internal/translate"
)

// layerMetrics lists every per-layer metric in print order. BENCHMARK.json
// names the same set; bench_test.go holds the two together.
var layerMetrics = []struct{ name, unit string }{
	{"spaql.parse_us", "us"},
	{"translate.build_ms", "ms"}, {"translate.formulate_csa_ms", "ms"},
	{"translate.csa_coefficients", "count"}, {"translate.pushdown_filtered_frac", "frac"},
	{"stream.summarize_ms", "ms"}, {"stream.scores_ms", "ms"}, {"stream.values_per_query", "count"},
	{"stream.mvalues_per_s", "M/s"}, {"stream.patch_summarize_ms", "ms"},
	{"scenario.generate_sets_ms", "ms"}, {"scenario.set_summarize_ms", "ms"},
	{"lp.iters_per_query", "count"}, {"lp.us_per_iter", "us"}, {"lp.root_solve_ms", "ms"},
	{"lp.warm_start_frac", "frac"}, {"lp.bound_flips_per_query", "count"}, {"lp.degen_pivots_per_query", "count"},
	{"milp.nodes_per_query", "count"}, {"milp.solves_per_query", "count"}, {"milp.solve_ms", "ms"},
	{"milp.us_per_node", "us"}, {"milp.presolve_rows", "count"}, {"milp.presolve_cols", "count"},
	{"milp.wall_frac", "frac"},
	{"core.validate_ms", "ms"}, {"core.validate_mscen_per_s", "M/s"}, {"core.iterations_per_query", "count"},
	{"core.final_m", "count"}, {"core.other_ms", "ms"}, {"core.warm_resolve_ms", "ms"}, {"core.warm_resolve_lp_iters", "count"},
	{"sketch.sketch_ms", "ms"}, {"sketch.refine_ms", "ms"}, {"sketch.candidates", "count"},
	{"sketch.groups", "count"}, {"sketch.fallback_frac", "frac"},
	{"relation.compute_means_ms", "ms"}, {"relation.spill_csv_ms", "ms"}, {"relation.open_coldir_ms", "ms"},
	{"relation.partition_build_ms", "ms"}, {"relation.partition_patch_ms", "ms"},
	{"relation.apply_delta_us", "us"}, {"relation.shards_rebuilt_frac", "frac"},
	{"engine.hit_path_us", "us"}, {"engine.overhead_us", "us"}, {"engine.result_hit_frac", "frac"},
	{"engine.plan_hit_frac", "frac"}, {"engine.admission_wait_ms", "ms"}, {"engine.retained_frac", "frac"},
	{"engine.warm_resolve_frac", "frac"}, {"engine.job_submit_us", "us"},
	{"resultcache.get_ns", "ns"}, {"resultcache.put_ns", "ns"},
	{"client.http_overhead_us", "us"},
	{"par.speedup_validate_w2", "ratio"}, {"par.speedup_summarize_w2", "ratio"}, {"par.speedup_milp_w2", "ratio"},
	{"runtime.cpu_ms_per_query", "ms"}, {"runtime.peak_heap_mb", "MB"},
	{"runtime.gc_cycles_per_query", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"harness.round_spread_frac", "frac"}, {"harness.trace_overhead_frac", "frac"},
}

// acc is a running mean.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeSpan runs f under a span and returns how long it took.
func timeSpan(tr *tracer, name string, parent, op int, f func() error) (time.Duration, error) {
	sp := tr.start(name, parent, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(sp)
	return d, err
}

// layerRun accumulates what the replay and the kernels measure.
type layerRun struct {
	p   *plan
	tr  *tracer
	ctx context.Context

	parse, build, validate, solve      acc
	formulate, coefficients            acc
	summarize, scores, patch           acc
	genSets, setSummarize              acc
	milpSolve, rootSolve               acc
	iterations, finalM, other          acc
	sketchMS, refineMS, cands, groups  acc
	fellBack                           acc
	valScen, valTime                   float64
	sumValues, sumSeconds              float64
	milpTime, milpNodes, milpIters     float64
	solveTimeInOps, latInOps           float64
	pushKept, pushFiltered             int64
	speedValidate, speedSum, speedMILP float64
}

// problemOf lowers an op's query the way the engine did. It reads the
// unfiltered table, so Build repeats the WHERE pushdown; a mutated table has
// moved on by replay time, and its templates carry no WHERE, so there the
// op's own pinned view stands in.
func problemOf(in *instance, t *template, out *outcome, q *spaql.Query) *relation.Relation {
	if out.rel == nil || q.Where != nil {
		return in.cat[t.table].Snapshot()
	}
	return out.rel
}

// consSummaries folds one summary per probabilistic constraint and scenario
// partition off streaming cursors; objSummaries does the same for a
// probability objective (nil otherwise).
func consSummaries(ctx context.Context, silp *translate.SILP, src rng.Source, parts [][]int, workers int) ([][]*scenario.Summary, error) {
	out := make([][]*scenario.Summary, len(silp.ProbCons))
	for k := range silp.ProbCons {
		cur := silp.ConsCursor(k, src, 0)
		for _, part := range parts {
			s, err := cur.Summarize(ctx, part, silp.ProbCons[k].Direction(), nil, workers)
			if err != nil {
				return nil, err
			}
			out[k] = append(out[k], s)
		}
	}
	return out, nil
}

func objSummaries(ctx context.Context, silp *translate.SILP, src rng.Source, parts [][]int, workers int) ([]*scenario.Summary, error) {
	oc := silp.ObjCursor(src, 0)
	if oc == nil {
		return nil, nil
	}
	dir := scenario.Max
	if silp.ObjGeq {
		dir = scenario.Min
	}
	var out []*scenario.Summary
	for _, part := range parts {
		s, err := oc.Summarize(ctx, part, dir, nil, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// kernelMILP are the search options of the MILP kernels: the engine's
// defaults, with the worker count stated.
func kernelMILP(workers int) *milp.Options {
	return &milp.Options{MaxNodes: 200000, RelGap: 1e-4, Parallelism: workers}
}

// replayOp re-runs one op stage by stage through the layers' public
// functions. A result-cache hit replays parse and build only: no solve ran.
func (l *layerRun) replayOp(in *instance, o *op, out *outcome, opID int, kernels bool) error {
	t := o.tmpl
	root := l.tr.start("replay", 0, opID)
	defer l.tr.end(root)

	var q *spaql.Query
	d, err := timeSpan(l.tr, "spaql.Parse", root, opID, func() (err error) {
		q, err = spaql.Parse(t.query)
		return err
	})
	if err != nil {
		return err
	}
	l.parse.add(us(d))

	rel := problemOf(in, t, out, q)
	var silp *translate.SILP
	before := stream.Counters()
	d, err = timeSpan(l.tr, "translate.Build", root, opID, func() (err error) {
		silp, err = translate.Build(q, rel, nil)
		return err
	})
	if err != nil {
		return err
	}
	after := stream.Counters()
	l.pushKept += after.PushdownKept - before.PushdownKept
	l.pushFiltered += after.PushdownFiltered - before.PushdownFiltered
	l.build.add(ms(d))
	if out.hit || out.fail != "" {
		return nil
	}

	opts := t.opts
	opts.Seed, opts.Parallelism = o.seed, l.p.parallelism
	var sol *core.Solution
	var sk *sketch.Stats
	name := "core.SummarySearchCtx"
	if t.method == "sketch" {
		name = "sketch.SolveSILP"
	}
	d, err = timeSpan(l.tr, name, root, opID, func() (err error) {
		sol, sk, err = t.solve(l.ctx, silp, &opts, l.p.parallelism)
		return err
	})
	if err != nil {
		return err
	}
	l.iterations.add(float64(len(sol.Iterations)))
	l.finalM.add(float64(sol.M))
	inner := time.Duration(0)
	for _, it := range sol.Iterations {
		inner += it.SolveTime + it.ValidateTime
	}
	l.other.add(ms(sol.TotalTime - inner))
	if sk != nil {
		l.sketchMS.add(ms(sk.SketchTime))
		l.refineMS.add(ms(sk.RefineTime))
		l.cands.add(float64(sk.Candidates))
		l.groups.add(float64(sk.Groups))
		if sk.FellBack {
			l.fellBack.add(1)
		} else {
			l.fellBack.add(0)
		}
	}
	// Where the op's own wall went, by the program's account of its solves.
	src := sol
	if out.sol != nil {
		src = out.sol
	}
	for _, it := range src.Iterations {
		l.solveTimeInOps += it.SolveTime.Seconds()
	}
	l.latInOps += (out.lat - out.deltaLat).Seconds()

	if sol.X != nil {
		d, err = timeSpan(l.tr, "core.Validate", root, opID, func() error {
			_, err := core.Validate(l.ctx, silp, sol.X, &opts)
			return err
		})
		if err != nil {
			return err
		}
		l.validate.add(ms(d))
		l.valScen += float64(opts.ValidationM)
		l.valTime += d.Seconds()
	}
	if kernels {
		return l.kernels(silp, &opts, sol, root, opID)
	}
	return nil
}

// kernels times the layers' inner loops at one op's final (N, M, Z): the
// streamed and the materialised summary paths side by side, the CSA
// formulation, and the MILP on it with and without its tree.
func (l *layerRun) kernels(silp *translate.SILP, opts *core.Options, sol *core.Solution, parent, opID int) error {
	if len(silp.ProbCons) == 0 || sol.M == 0 {
		return nil
	}
	m, z, workers := sol.M, max(sol.Z, 1), l.p.parallelism
	src := rng.NewSource(opts.Seed).Derive(1)
	parts := scenario.PartitionIDs(m, z, opts.Seed)
	ids := make([]int, m)
	for j := range ids {
		ids[j] = j
	}
	x := sol.X
	if x == nil {
		x = make([]float64, silp.N)
	}

	// Streamed: cursors fold summaries and scores block-wise.
	var summaries [][]*scenario.Summary
	d, err := timeSpan(l.tr, "stream.Summarize", parent, opID, func() (err error) {
		summaries, err = consSummaries(l.ctx, silp, src, parts, workers)
		return err
	})
	if err != nil {
		return err
	}
	l.summarize.add(ms(d))
	l.sumValues += float64(len(silp.ProbCons) * silp.N * m)
	l.sumSeconds += d.Seconds()

	cur0 := silp.ConsCursor(0, src, 0)
	d, err = timeSpan(l.tr, "stream.Scores", parent, opID, func() error {
		_, err := cur0.Scores(l.ctx, ids, x, workers)
		return err
	})
	if err != nil {
		return err
	}
	l.scores.add(ms(d))

	touched := []int{0, silp.N / 3, silp.N / 2, silp.N - 1}
	d, err = timeSpan(l.tr, "stream.PatchSummarize", parent, opID, func() error {
		_, err := cur0.PatchSummarize(l.ctx, summaries[0][0], touched)
		return err
	})
	if err != nil {
		return err
	}
	l.patch.add(ms(d))

	// Materialised twins of the two stream kernels, same N and M.
	var sets []*scenario.Set
	d, err = timeSpan(l.tr, "scenario.GenerateSets", parent, opID, func() (err error) {
		sets, _, err = silp.GenerateSetsP(l.ctx, src, 0, m, workers)
		return err
	})
	if err != nil {
		return err
	}
	l.genSets.add(ms(d))
	d, err = timeSpan(l.tr, "scenario.SummarizeP", parent, opID, func() error {
		for k, set := range sets {
			for _, part := range parts {
				if _, err := set.SummarizeP(l.ctx, part, silp.ProbCons[k].Direction(), nil, workers); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.setSummarize.add(ms(d))

	objSums, err := objSummaries(l.ctx, silp, src, parts, workers)
	if err != nil {
		return err
	}
	var model *milp.Model
	d, err = timeSpan(l.tr, "translate.FormulateCSA", parent, opID, func() (err error) {
		model, _, err = silp.FormulateCSA(summaries, objSums)
		return err
	})
	if err != nil {
		return err
	}
	l.formulate.add(ms(d))
	l.coefficients.add(float64(model.NumCoefficients()))

	var res *milp.Result
	d, err = timeSpan(l.tr, "milp.Solve", parent, opID, func() (err error) {
		res, err = milp.Solve(model, kernelMILP(workers))
		return err
	})
	if err != nil {
		return err
	}
	l.milpSolve.add(ms(d))
	l.milpTime += d.Seconds()
	l.milpNodes += float64(res.Nodes)
	l.milpIters += float64(res.LPIters)
	rootOnly := kernelMILP(workers)
	rootOnly.MaxNodes = 1
	d, err = timeSpan(l.tr, "milp.Solve.root", parent, opID, func() error {
		_, err := milp.Solve(model, rootOnly)
		return err
	})
	if err != nil {
		return err
	}
	l.rootSolve.add(ms(d))
	return nil
}

// speedups runs three kernels at one and at two workers on one op's
// problem: the ratios are what intra-query parallelism buys on this host.
func (l *layerRun) speedups(in *instance, o *op, out *outcome) error {
	q, err := spaql.Parse(o.tmpl.query)
	if err != nil {
		return err
	}
	silp, err := translate.Build(q, problemOf(in, o.tmpl, out, q), nil)
	if err != nil {
		return err
	}
	opts := o.tmpl.opts
	opts.Seed, opts.Parallelism = o.seed, 1
	sol, err := core.SummarySearchCtx(l.ctx, silp, &opts)
	if err != nil || sol.X == nil || len(silp.ProbCons) == 0 {
		return err
	}
	src := rng.NewSource(opts.Seed).Derive(1)
	parts := scenario.PartitionIDs(sol.M, 1, opts.Seed)
	summaries, err := consSummaries(l.ctx, silp, src, parts, 1)
	if err != nil {
		return err
	}
	objSums, err := objSummaries(l.ctx, silp, src, parts, 1)
	if err != nil {
		return err
	}
	model, _, err := silp.FormulateCSA(summaries, objSums)
	if err != nil {
		return err
	}
	cur := silp.ConsCursor(0, src, 0)
	// Each kernel runs three times at each worker count, turn about, and the
	// ratio is of the minima: one timing of a few milliseconds is as likely
	// to hold a GC cycle as not.
	at := func(name string, f func(workers int) error) (float64, error) {
		ds := [2]time.Duration{1 << 62, 1 << 62}
		for rep := 0; rep < 3; rep++ {
			for w := 1; w <= 2; w++ {
				d, err := timeSpan(l.tr, fmt.Sprintf("kernel:%s.w%d", name, w), 0, -1, func() error { return f(w) })
				if err != nil {
					return 0, err
				}
				ds[w-1] = min(ds[w-1], d)
			}
		}
		return ratio(ds[0].Seconds(), ds[1].Seconds()), nil
	}
	if l.speedValidate, err = at("par.Validate", func(w int) error {
		vo := opts
		vo.Parallelism = w
		_, err := core.Validate(l.ctx, silp, sol.X, &vo)
		return err
	}); err != nil {
		return err
	}
	if l.speedSum, err = at("par.Summarize", func(w int) error {
		_, err := cur.Summarize(l.ctx, parts[0], silp.ProbCons[0].Direction(), nil, w)
		return err
	}); err != nil {
		return err
	}
	l.speedMILP, err = at("par.milp.Solve", func(w int) error {
		_, err := milp.Solve(model, kernelMILP(w))
		return err
	})
	return err
}

// servingResult is what the serving kernels measured.
type servingResult struct {
	hitUS, httpUS, submitUS, getNS, putNS, overheadUS float64
}

// servingKernels times the paths a cached answer takes: Engine.Query on a
// hit, the same hit through HTTP and the client, a job submission, and the
// LRU itself. They run on an engine of their own over the round's tables, so
// they mean the same on workloads that keep the result cache off.
func servingKernels(l *layerRun, in *instance, o, direct *op) (servingResult, error) {
	var r servingResult
	const reps = 200
	eng := engine.New(in.cat, &engine.Options{MaxInFlight: 1, Parallelism: 1, DefaultTimeout: opTimeout})
	req := o.tmpl.request(o.seed)
	if _, err := eng.Query(l.ctx, req); err != nil {
		return r, err
	}
	d, err := timeSpan(l.tr, "kernel:engine.Query.hit", 0, -1, func() error {
		for i := 0; i < reps; i++ {
			res, err := eng.Query(l.ctx, req)
			if err != nil {
				return err
			}
			if !res.ResultCacheHit {
				return fmt.Errorf("kernel query %s was not a result-cache hit", o)
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.hitUS = us(d) / reps

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	cl, err := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithRetries(0))
	if err != nil {
		return r, err
	}
	sr := o.tmpl.submit(o.seed, "")
	if _, err := cl.Run(l.ctx, sr); err != nil { // first contact: connection set-up, key may differ
		return r, err
	}
	d, err = timeSpan(l.tr, "kernel:client.Run.hit", 0, -1, func() error {
		for i := 0; i < reps; i++ {
			job, err := cl.Run(l.ctx, sr)
			if err == nil {
				err = job.Err()
			}
			if err != nil {
				return err
			}
			if !job.Result.ResultCacheHit {
				return fmt.Errorf("kernel request %s was not a result-cache hit", o)
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.httpUS = us(d)/reps - r.hitUS

	var inSubmit time.Duration
	sp := l.tr.start("kernel:engine.Submit", 0, -1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		job, err := eng.Submit(req)
		inSubmit += time.Since(t0)
		if err != nil {
			return r, err
		}
		<-job.Done()
	}
	l.tr.end(sp)
	r.submitUS = us(inSubmit) / reps

	if r.overheadUS, err = engineOverhead(l, in, direct); err != nil {
		return r, err
	}

	const keys = 512
	mem := resultcache.NewMemory(256)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("kernel-key-%04d", i)
	}
	entry := &resultcache.Entry{Table: "t"}
	d, _ = timeSpan(l.tr, "kernel:resultcache.Put", 0, -1, func() error {
		for rep := 0; rep < 20; rep++ {
			for _, k := range names {
				mem.Put(k, entry)
			}
		}
		return nil
	})
	r.putNS = float64(d) / (20 * keys)
	d, _ = timeSpan(l.tr, "kernel:resultcache.Get", 0, -1, func() error {
		for rep := 0; rep < 20; rep++ {
			for _, k := range names {
				mem.Get(k)
			}
		}
		return nil
	})
	r.getNS = float64(d) / (20 * keys)
	return r, nil
}

// engineOverhead is what Engine.Query adds to a cold evaluation: the wall of
// a call to an engine without a result cache minus the evaluation's own
// account of its wall (Solution.TotalTime) inside that same call, the median
// over repetitions. Both readings come from one execution, so the noise of a
// search cancels and the microseconds of parsing, keying, admission and
// snapshot pinning remain. Never a sketch op: its TotalTime leaves out the
// sketch stages.
func engineOverhead(l *layerRun, in *instance, o *op) (float64, error) {
	const reps = 30
	eng := engine.New(in.cat, &engine.Options{MaxInFlight: 1, Parallelism: 1, DefaultTimeout: opTimeout, ResultCacheSize: -1})
	req := o.tmpl.request(o.seed)
	if _, err := eng.Query(l.ctx, req); err != nil { // fills the plan cache
		return 0, err
	}
	sp := l.tr.start("kernel:engine.Query.cold", 0, -1)
	defer l.tr.end(sp)
	var over []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := eng.Query(l.ctx, req)
		elapsed := time.Since(t0)
		if err != nil {
			return 0, err
		}
		over = append(over, us(elapsed-res.Solution.TotalTime))
	}
	return median(over), nil
}

// relationResult is what the storage kernels measured.
type relationResult struct {
	spillMS, openMS, meansMS, partBuildMS, partPatchMS, deltaUS float64
	shardsRebuilt, shardsRetained                               int64
}

// relationKernels runs last: they mutate the table. Spill and reopen, a
// partitioning built cold and then patched after a delta on one of its
// features, small cell deltas, and the means precomputation.
func relationKernels(l *layerRun, in *instance, t *template, meansM int) (relationResult, error) {
	var r relationResult
	rel := in.cat[t.table]
	dets := rel.DetNames()
	if len(dets) == 0 {
		return r, fmt.Errorf("table %s has no deterministic column", t.table)
	}
	dir, err := os.MkdirTemp(scratchDir(), "kernel-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		return r, err
	}
	d, err := timeSpan(l.tr, "kernel:relation.SpillCSV", 0, -1, func() error {
		_, err := relation.SpillCSV(rel.Name(), &csv, dir, nil)
		return err
	})
	if err != nil {
		return r, err
	}
	r.spillMS = ms(d)
	d, err = timeSpan(l.tr, "kernel:relation.OpenColumnDir", 0, -1, func() error {
		_, err := relation.OpenColumnDir(dir, nil)
		return err
	})
	if err != nil {
		return r, err
	}
	r.openMS = ms(d)

	// Cluster on what the query reads plus one deterministic column, so a
	// cell delta can hit a feature whatever the template.
	features := append([]string{}, t.attrs...)
	col := dets[0]
	seen := false
	for _, f := range features {
		seen = seen || f == col
	}
	if !seen {
		features = append(features, col)
	}
	// Partition reads features through Means, which hands back a spilled
	// column unpromoted (nil); Det promotes it first.
	if _, err := rel.Det(col); err != nil {
		return r, err
	}
	spec := relation.PartitionSpec{Features: features, GroupSize: 64, Shards: 4, Seed: 0xbe7c}
	d, err = timeSpan(l.tr, "kernel:relation.Partition.build", 0, -1, func() error {
		_, err := rel.Partition(spec)
		return err
	})
	if err != nil {
		return r, err
	}
	r.partBuildMS = ms(d)

	n := rel.N()
	cells := func(i int) *relation.Delta {
		patch := map[int]float64{}
		for k := 0; k < 4; k++ {
			tuple := (i*7919 + k*104729) % n
			old, err := rel.DetValue(col, tuple)
			if err != nil {
				old = 1
			}
			patch[tuple] = old * 1.01
		}
		return &relation.Delta{Set: map[string]map[int]float64{col: patch}}
	}
	before := relation.DeltaStats()
	if _, err := rel.ApplyDelta(cells(0)); err != nil {
		return r, err
	}
	d, err = timeSpan(l.tr, "kernel:relation.Partition.patch", 0, -1, func() error {
		_, err := rel.Partition(spec)
		return err
	})
	if err != nil {
		return r, err
	}
	r.partPatchMS = ms(d)
	after := relation.DeltaStats()
	r.shardsRebuilt = after.ShardsRebuilt - before.ShardsRebuilt
	r.shardsRetained = after.ShardsRetained - before.ShardsRetained

	const reps = 50
	d, err = timeSpan(l.tr, "kernel:relation.ApplyDelta", 0, -1, func() error {
		for i := 1; i <= reps; i++ {
			if _, err := rel.ApplyDelta(cells(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.deltaUS = us(d) / reps

	d, _ = timeSpan(l.tr, "kernel:relation.ComputeMeans", 0, -1, func() error {
		rel.ComputeMeans(rng.NewSource(rng.Mix(dataSeed, 0x3ea5)), meansM)
		return nil
	})
	r.meansMS = ms(d)
	return r, nil
}

// traced makes the separate run behind the per-layer numbers: one round
// untraced, one round traced, then the traced round's ops replayed stage by
// stage and the kernels, all under the harness's own spans.
func traced(def workloadDef, sz sizes, seed uint64, outPath string) (*runReport, error) {
	p := def.build(sz, seed)
	chk := newChecker(sz, p)
	rep := &runReport{
		workload: def.name, seed: seed, ops: p.opCount(), clients: len(p.scripts), rounds: 2,
		metrics: map[string]metric{}, spreads: map[string]float64{},
	}
	plain, in, err := runRound(p, seed, nil, false)
	if err != nil {
		return nil, err
	}
	chk.checkRound(in, p, plain, 0, rep)
	in.close()

	tr := newTracer()
	rr, in, err := runRound(p, seed, tr, true)
	if err != nil {
		return nil, err
	}
	defer in.close()
	chk.checkRound(in, p, rr, 1, rep)
	rep.guardErr = guardRounds(p, []*roundResult{plain, rr})

	l := &layerRun{p: p, tr: tr, ctx: context.Background()}
	seenTemplate := map[string]bool{}
	var queryOps []*outcome
	type ref struct{ c, i int }
	var solved []ref // feasible ops that ran a solve
	for c, script := range p.scripts {
		for i := range script {
			o, out := &script[i], &rr.outcomes[c][i]
			if o.tmpl == nil {
				continue
			}
			queryOps = append(queryOps, out)
			first := !out.hit && out.fail == "" && !seenTemplate[o.tmpl.id]
			if first {
				seenTemplate[o.tmpl.id] = true
			}
			if err := l.replayOp(in, o, out, c*1_000_000+i, first); err != nil {
				return nil, fmt.Errorf("replaying %s: %w", o, err)
			}
			if !out.hit && out.fail == "" && o.tmpl.feasible {
				solved = append(solved, ref{c, i})
			}
		}
	}
	// The cheapest solved op carries the serving kernels (they pay one cold
	// evaluation of it); the median one carries the speed-up kernels, so
	// its tree is neither trivial nor the run's longest.
	sort.Slice(solved, func(a, b int) bool {
		return rr.outcomes[solved[a].c][solved[a].i].lat < rr.outcomes[solved[b].c][solved[b].i].lat
	})
	var serving servingResult
	var storage relationResult
	if len(solved) > 0 {
		lo, mid := solved[0], solved[len(solved)/2]
		cheapest, middle := &p.scripts[lo.c][lo.i], &p.scripts[mid.c][mid.i]
		direct := cheapest // the cheapest op that is not a sketch op
		for _, r := range solved {
			if o := &p.scripts[r.c][r.i]; o.tmpl.method != "sketch" {
				direct = o
				break
			}
		}
		if err := l.speedups(in, middle, &rr.outcomes[mid.c][mid.i]); err != nil {
			return nil, fmt.Errorf("speed-up kernels on %s: %w", middle, err)
		}
		if serving, err = servingKernels(l, in, cheapest, direct); err != nil {
			return nil, fmt.Errorf("serving kernels on %s: %w", cheapest, err)
		}
		if storage, err = relationKernels(l, in, cheapest.tmpl, sz.meansM); err != nil {
			return nil, fmt.Errorf("relation kernels on %s: %w", cheapest.tmpl.table, err)
		}
	}

	// --- reduce to the per-layer metrics ---
	c := rr.counts
	f := func(name string) float64 { return float64(c[name]) }
	nq := float64(len(queryOps))
	var wait, warmMS, warmIters acc
	for _, out := range queryOps {
		wait.add(out.waitMS)
		if out.warm && out.sol != nil {
			warmMS.add(ms(out.sol.TotalTime))
			warmIters.add(float64(out.sol.LPIters))
		}
	}
	var deltaUS acc
	for _, s := range tr.spans {
		if s.Name == "engine.ApplyDelta" || s.Name == "client.ApplyDelta" {
			deltaUS.add(float64(s.EndNS-s.StartNS) / 1e3)
		}
	}
	applyDelta := storage.deltaUS
	if deltaUS.n > 0 {
		applyDelta = deltaUS.mean()
	}
	rebuilt, retained := f("relation.shards_rebuilt"), f("relation.shards_retained")
	if rebuilt+retained == 0 {
		rebuilt, retained = float64(storage.shardsRebuilt), float64(storage.shardsRetained)
	}
	spill, open := storage.spillMS, storage.openMS
	if s := spanTotalMS(tr, "relation.SpillCSV"); s > 0 {
		// The workload's own set-up spilled: report that, not the kernel.
		spill, open = s, spanTotalMS(tr, "relation.OpenColumnDir")
	}
	var sumTraced, sumPlain float64
	var spreads []float64
	for ci, script := range p.scripts {
		for i := range script {
			a, b := plain.outcomes[ci][i].lat.Seconds(), rr.outcomes[ci][i].lat.Seconds()
			sumPlain, sumTraced = sumPlain+a, sumTraced+b
			if lo := min(a, b); lo > 0 {
				spreads = append(spreads, (a+b)/2/lo-1)
			}
		}
	}

	v := map[string]float64{
		"spaql.parse_us":                   l.parse.mean(),
		"translate.build_ms":               l.build.mean(),
		"translate.formulate_csa_ms":       l.formulate.mean(),
		"translate.csa_coefficients":       l.coefficients.mean(),
		"translate.pushdown_filtered_frac": ratio(float64(l.pushFiltered), float64(l.pushKept+l.pushFiltered)),
		"stream.summarize_ms":              l.summarize.mean(),
		"stream.scores_ms":                 l.scores.mean(),
		"stream.values_per_query":          ratio(f("stream.values"), nq),
		"stream.mvalues_per_s":             ratio(l.sumValues, l.sumSeconds) / 1e6,
		"stream.patch_summarize_ms":        l.patch.mean(),
		"scenario.generate_sets_ms":        l.genSets.mean(),
		"scenario.set_summarize_ms":        l.setSummarize.mean(),
		"lp.iters_per_query":               ratio(f("lp.iters"), nq),
		"lp.us_per_iter":                   ratio(l.milpTime*1e6, l.milpIters),
		"lp.root_solve_ms":                 l.rootSolve.mean(),
		"lp.warm_start_frac":               ratio(f("lp.warm_starts"), f("milp.nodes")),
		"lp.bound_flips_per_query":         ratio(f("lp.bound_flips"), nq),
		"lp.degen_pivots_per_query":        ratio(f("lp.degen_pivots"), nq),
		"milp.nodes_per_query":             ratio(f("milp.nodes"), nq),
		"milp.solves_per_query":            ratio(f("milp.solves"), nq),
		"milp.solve_ms":                    l.milpSolve.mean(),
		"milp.us_per_node":                 ratio(l.milpTime*1e6, l.milpNodes),
		"milp.presolve_rows":               ratio(f("milp.presolve_rows"), f("milp.solves")),
		"milp.presolve_cols":               ratio(f("milp.presolve_cols"), f("milp.solves")),
		"milp.wall_frac":                   ratio(l.solveTimeInOps, l.latInOps),
		"core.validate_ms":                 l.validate.mean(),
		"core.validate_mscen_per_s":        ratio(l.valScen, l.valTime) / 1e6,
		"core.iterations_per_query":        l.iterations.mean(),
		"core.final_m":                     l.finalM.mean(),
		"core.other_ms":                    l.other.mean(),
		"core.warm_resolve_ms":             warmMS.mean(),
		"core.warm_resolve_lp_iters":       warmIters.mean(),
		"sketch.sketch_ms":                 l.sketchMS.mean(),
		"sketch.refine_ms":                 l.refineMS.mean(),
		"sketch.candidates":                l.cands.mean(),
		"sketch.groups":                    l.groups.mean(),
		"sketch.fallback_frac":             l.fellBack.mean(),
		"relation.compute_means_ms":        storage.meansMS,
		"relation.spill_csv_ms":            spill,
		"relation.open_coldir_ms":          open,
		"relation.partition_build_ms":      storage.partBuildMS,
		"relation.partition_patch_ms":      storage.partPatchMS,
		"relation.apply_delta_us":          applyDelta,
		"relation.shards_rebuilt_frac":     ratio(rebuilt, rebuilt+retained),
		"engine.hit_path_us":               serving.hitUS,
		"engine.overhead_us":               serving.overheadUS,
		"engine.result_hit_frac":           ratio(f("engine.result_hits"), f("engine.result_hits")+f("engine.result_misses")),
		"engine.plan_hit_frac":             ratio(f("engine.plan_hits"), f("engine.plan_hits")+f("engine.plan_misses")),
		"engine.admission_wait_ms":         wait.mean(),
		"engine.retained_frac":             ratio(f("engine.results_retained"), f("engine.results_retained")+f("engine.results_invalidated")),
		"engine.warm_resolve_frac":         ratio(f("engine.warm_resolves"), f("milp.solves")),
		"engine.job_submit_us":             serving.submitUS,
		"resultcache.get_ns":               serving.getNS,
		"resultcache.put_ns":               serving.putNS,
		"client.http_overhead_us":          serving.httpUS,
		"par.speedup_validate_w2":          l.speedValidate,
		"par.speedup_summarize_w2":         l.speedSum,
		"par.speedup_milp_w2":              l.speedMILP,
		"runtime.cpu_ms_per_query":         ratio(ms(rr.cpu), float64(p.opCount())),
		"runtime.peak_heap_mb":             float64(rr.peakHeap) / 1e6,
		"runtime.gc_cycles_per_query":      ratio(float64(rr.gcCycles), float64(p.opCount())),
		"runtime.gc_pause_ms":              ms(rr.gcPause),
		"harness.round_spread_frac":        median(spreads),
		"harness.trace_overhead_frac":      ratio(sumTraced-sumPlain, sumPlain),
	}
	for _, m := range layerMetrics {
		rep.set(m.name, v[m.name], m.unit)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("timed phase %.2f s traced, %.2f s untraced; set-up %.2f s; %d spans", rr.wall.Seconds(), plain.wall.Seconds(), rr.setup.Seconds(), len(tr.spans)))
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(outPath, def.name, seed, tr); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.notes = append(rep.notes, "spans written to "+outPath)
	return rep, nil
}
