// Package sketch implements a SketchRefine-style divide-and-conquer layer
// over the core solvers, the scale-up direction the paper names for very
// large datasets (§6.2.4, §8; SketchRefine is from Brucato et al., VLDB
// 2018).
//
// The relation is partitioned into groups of similar tuples by seeded
// k-means on the query-relevant attributes, using attribute means for
// stochastic columns (relation.PartitionSpec). The SKETCH phase solves the
// stochastic package query over one medoid tuple per group — a problem with
// ⌈N/τ⌉ variables instead of N — producing a per-group allotment. The
// REFINE phase re-solves the query over only the tuples of the groups the
// sketch selected, a candidate set that is typically a small fraction of N.
//
// The sketch phase is a partition-aware pipeline rather than one big medoid
// solve: the tuples are dealt round-robin to Options.Shards shards, each
// clustered on its own, each shard's medoid problem is solved independently
// (concurrently on internal/par when Options.Workers allows), and the
// per-shard candidate sets are merged under MaxCandidates before the single
// global refine. Shard solves are deterministic — shard composition depends
// only on the partitioning, each shard's scenario RNG is derived from
// rng.Source.Split keyed by the shard id, and the merge consumes shards in
// order — so any worker count returns bit-identical packages, and a 1-shard
// run is exactly the classic single-solve sketch. Partitionings are built
// once and cached on the relation per version (relation.Partition), so
// repeated queries and cached engine plans never re-cluster.
//
// This is a pruning variant of SketchRefine: refine re-optimizes the whole
// package over the union of sketched groups in one solve (rather than
// greedily per group), which keeps the stochastic constraints exact at the
// cost of a slightly larger refine problem. DESIGN.md records the
// deviation.
//
// Every sub-problem — shard sketches, the refine, fallbacks — is solved by
// core.SummarySearchCtx.
package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"spq/internal/core"
	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/par"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// Options tune the sketch layer.
type Options struct {
	// GroupSize is the partitioning threshold τ: groups hold at most ~τ
	// tuples (default 64).
	GroupSize int
	// Seed drives k-means initialization.
	Seed uint64
	// MaxCandidates caps the refine problem size; when the sketch selects
	// more, the groups with the largest allotments win (default 4·τ).
	MaxCandidates int
	// Shards splits the sketch phase into this many independent medoid
	// solves (default 1 = the classic single sketch solve). Tuple i goes to
	// shard i mod Shards and each shard is clustered on its own, so the
	// shard count changes the groups as well as which candidates the sketch
	// proposes, but not the refine semantics. The result is identical for
	// any worker count.
	Shards int
	// Workers bounds the goroutines running shard solves: 0 or 1 run
	// sequentially, negative uses one worker per available CPU. Results are
	// bit-identical for every value.
	Workers int
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	// Non-positive values (the HTTP layer forwards client numbers
	// unchecked) take the defaults.
	if out.GroupSize <= 0 {
		out.GroupSize = 64
	}
	if out.MaxCandidates <= 0 {
		out.MaxCandidates = 4 * out.GroupSize
	}
	if out.Shards <= 0 {
		out.Shards = 1
	}
	return out
}

// Key renders every result-relevant sketch option canonically, after
// defaulting, for the engine's result cache. Workers is excluded (any
// worker count is bit-identical). Nil receivers key like the zero Options.
func (o *Options) Key() string {
	so := o.withDefaults()
	return fmt.Sprintf("tau=%d,seed=%d,cand=%d,shards=%d",
		so.GroupSize, so.Seed, so.MaxCandidates, so.Shards)
}

// Stats reports what the sketch pipeline did.
type Stats struct {
	Groups       int
	SketchTuples int
	Candidates   int
	// Shards is the number of shard solves the sketch phase was split into;
	// ShardSolves counts those that ran (== Shards unless the pipeline fell
	// back before sketching), ShardFailures those that found no feasible
	// shard-local sketch (they contribute no candidates).
	Shards        int
	ShardSolves   int
	ShardFailures int
	SketchTime    time.Duration
	RefineTime    time.Duration
	// SketchObj is the best shard sketch objective in the query's sense
	// (largest for MAXIMIZE, smallest for MINIMIZE); with a single shard it
	// is exactly the sketch solve's objective.
	SketchObj float64
	FellBack  bool // sketch failed; solved on the full relation
}

// withPhase returns a copy of opts whose progress reports carry the given
// pipeline phase label, so consumers can tell shard sketches, the refine,
// and fallbacks apart; nil opts or no callback pass through unchanged.
func withPhase(opts *core.Options, phase string) *core.Options {
	if opts == nil || opts.Progress == nil {
		return opts
	}
	out := *opts
	orig := opts.Progress
	out.Progress = func(p core.Progress) {
		p.Phase = phase
		orig(p)
	}
	return &out
}

// featureAttrs picks the clustering features for a query: every
// deterministic column and every stochastic attribute's mean column that
// the query references, in constraint order (objective last), deduplicated.
func featureAttrs(silp *translate.SILP) ([]string, error) {
	seen := map[string]bool{}
	var attrs []string
	collect := func(e spaql.LinExpr) {
		for _, attr := range e.Attrs() {
			if !seen[attr] {
				seen[attr] = true
				attrs = append(attrs, attr)
			}
		}
	}
	for _, c := range silp.Query.Constraints {
		collect(c.Expr)
	}
	if silp.Query.Objective != nil {
		collect(silp.Query.Objective.Expr)
	}
	if len(attrs) == 0 {
		return nil, errors.New("sketch: query references no attributes to cluster on")
	}
	return attrs, nil
}

// allot is one sketched group with its medoid multiplicity.
type allot struct {
	group int
	count float64
}

// shardResult is the outcome of one shard's sketch solve.
type shardResult struct {
	chosen []allot
	obj    float64
	failed bool      // no feasible shard-local sketch
	stop   milp.Stop // the shard evaluation's Solution.Stop
}

// SolveSILP runs the partition-aware sketch pipeline on an already-lowered
// problem (the engine calls it with a cached plan's SILP, skipping
// re-translation). Cancellation of ctx aborts the pipeline promptly. The
// answer carries no core warm state (Solution.Warm): a refine's formulation
// indexes the candidate view, not silp's, and the engine never warm-starts a
// sketch query.
func SolveSILP(ctx context.Context, silp *translate.SILP, copts *core.Options, sopts *Options) (*core.Solution, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	so := sopts.withDefaults()
	view := silp.Rel // WHERE applied
	n := view.N()
	stats := &Stats{}

	if n <= so.MaxCandidates {
		// Small enough to solve directly.
		sol, err := fallback(ctx, silp, copts, stats)
		return sol, stats, err
	}

	attrs, err := featureAttrs(silp)
	if err != nil {
		return nil, nil, err
	}
	partSpan := obs.SpanFromContext(ctx).StartChild("partition")
	part, err := view.Partition(relation.PartitionSpec{
		Features:  attrs,
		GroupSize: so.GroupSize,
		Seed:      so.Seed,
		Shards:    so.Shards,
	})
	partSpan.End()
	if err != nil {
		return nil, nil, err
	}
	stats.Groups = part.NumGroups()
	stats.SketchTuples = len(part.Medoids)
	stats.Shards = part.NumShards()
	partSpan.SetInt("groups", int64(stats.Groups))

	// Strip the WHERE clause for sub-problems: it is already applied in view,
	// and medoid/candidate views derive from view.
	qNoWhere := *silp.Query
	qNoWhere.Where = nil

	// SKETCH: one independent medoid solve per shard, fanned out on the
	// worker pool. Each shard's scenario RNG comes from Split keyed by the
	// shard id; a single shard keeps the caller's seed untouched, so the
	// 1-shard pipeline is exactly the classic single-solve sketch.
	var baseOpts core.Options
	if copts != nil {
		baseOpts = *copts
	}
	// Divide the CPU budget between the two parallelism levels: when the
	// fan-out itself runs shards concurrently, each shard solve gets a
	// proportionally smaller internal worker pool (scenario generation,
	// validation) instead of multiplying into Workers×Parallelism
	// goroutines. Bit-identical either way, so this only shifts load.
	if workers := par.Workers(so.Workers, stats.Shards); workers > 1 {
		total := baseOpts.Parallelism
		if total < 0 {
			total = runtime.GOMAXPROCS(0)
		}
		if total < 1 {
			total = 1
		}
		if per := total / workers; per > 1 {
			baseOpts.Parallelism = per
		} else {
			baseOpts.Parallelism = 1
		}
	}
	shardSeeds := []uint64{baseOpts.Seed}
	if stats.Shards > 1 {
		srcs := rng.NewSource(baseOpts.Seed).Split(stats.Shards)
		shardSeeds = make([]uint64, stats.Shards)
		for s, src := range srcs {
			shardSeeds[s] = src.Base()
		}
	}

	results := make([]shardResult, stats.Shards)
	sketchStart := time.Now()
	err = par.Ranges(ctx, stats.Shards, so.Workers, func(_, lo, hi int) error {
		for s := lo; s < hi; s++ {
			res, err := solveShard(ctx, view, &qNoWhere, part, s, shardSeeds[s], &baseOpts)
			if err != nil {
				return fmt.Errorf("sketch: sketch phase (shard %d): %w", s, err)
			}
			results[s] = res
		}
		return nil
	})
	stats.SketchTime = time.Since(sketchStart)
	stats.ShardSolves = stats.Shards
	if err != nil {
		return nil, nil, err
	}

	// Merge per-shard candidate sets in shard order (deterministic for any
	// worker count). A budget that cut a shard changed the candidates, so
	// the gravest shard stop marks the answer too.
	var chosen []allot
	var shardStop milp.Stop
	better := math.Max
	stats.SketchObj = math.Inf(-1)
	if !silp.Maximize {
		better = math.Min
		stats.SketchObj = math.Inf(1)
	}
	for _, res := range results {
		shardStop = max(shardStop, res.stop)
		if res.failed {
			stats.ShardFailures++
			continue
		}
		chosen = append(chosen, res.chosen...)
		stats.SketchObj = better(stats.SketchObj, res.obj)
	}
	if len(chosen) == 0 {
		// Every shard's sketch failed (or selected nothing): fall back to
		// the full problem.
		stats.SketchObj = 0
		refineStart := time.Now()
		sol, err := fallback(ctx, silp, copts, stats)
		stats.RefineTime = time.Since(refineStart)
		if sol != nil {
			sol.RaiseStop(shardStop)
		}
		return sol, stats, err
	}

	// Order by allotment descending (simple insertion; few groups).
	for i := 1; i < len(chosen); i++ {
		for j := i; j > 0 && chosen[j].count > chosen[j-1].count; j-- {
			chosen[j], chosen[j-1] = chosen[j-1], chosen[j]
		}
	}
	inCandidate := make([]bool, n)
	count := 0
	for _, a := range chosen {
		members := part.Groups[a.group]
		if count+len(members) > so.MaxCandidates && count > 0 {
			continue
		}
		for _, t := range members {
			if !inCandidate[t] {
				inCandidate[t] = true
				count++
			}
		}
	}
	stats.Candidates = count

	// REFINE: one global solve over the tuples of the selected groups.
	candRel, err := view.Select(func(t int) bool { return inCandidate[t] })
	if err != nil {
		return nil, nil, err
	}
	refineStart := time.Now()
	rctx, rsp := obs.StartSpan(ctx, "refine")
	rsp.SetInt("candidates", int64(count))
	refineSILP, err := translate.Build(&qNoWhere, candRel, nil)
	if err != nil {
		rsp.End()
		return nil, nil, err
	}
	refined, err := core.SummarySearchCtx(rctx, refineSILP, withPhase(copts, "refine"))
	rsp.End()
	stats.RefineTime = time.Since(refineStart)
	if err != nil {
		return nil, nil, err
	}

	// Map the refined solution back to view indexing.
	out := *refined
	out.Warm = nil // indexes the candidate view
	out.RaiseStop(shardStop)
	out.X = make([]float64, n)
	candRow := 0
	for t := 0; t < n; t++ {
		if inCandidate[t] {
			if refined.X != nil {
				out.X[t] = refined.X[candRow]
			}
			candRow++
		}
	}
	if refined.X == nil {
		out.X = nil
	}
	return &out, stats, nil
}

// fallback solves the whole (WHERE-filtered) problem with SummarySearch and
// records in stats that the pipeline fell back.
func fallback(ctx context.Context, silp *translate.SILP, copts *core.Options, stats *Stats) (*core.Solution, error) {
	stats.FellBack = true
	stats.Candidates = silp.Rel.N()
	fctx, fsp := obs.StartSpan(ctx, "fallback")
	defer fsp.End()
	sol, err := core.SummarySearchCtx(fctx, silp, withPhase(copts, "fallback"))
	if sol != nil {
		sol.Warm = nil // see SolveSILP
	}
	return sol, err
}

// solveShard runs the sketch solve for one shard: the query over the
// medoids of the shard's groups, each medoid's multiplicity bound inflated
// to stand for its whole group. A shard whose sketch is infeasible (or
// selects nothing) reports failure and contributes no candidates; any other
// solver error aborts the pipeline.
func solveShard(ctx context.Context, view *relation.Relation, qNoWhere *spaql.Query,
	part *relation.Partitioning, shard int, seed uint64, baseOpts *core.Options) (shardResult, error) {

	n := view.N()
	isMedoid := make([]bool, n)
	for _, g := range part.ShardGroups[shard] {
		isMedoid[part.Medoids[g]] = true
	}
	// Medoid rows appear in tuple order, matching the Select view's rows.
	groupOfMedoidRow := make([]int, 0, len(part.ShardGroups[shard]))
	for i := 0; i < n; i++ {
		if isMedoid[i] {
			groupOfMedoidRow = append(groupOfMedoidRow, part.GroupOf[i])
		}
	}
	sketchRel, err := view.Select(func(t int) bool { return isMedoid[t] })
	if err != nil {
		return shardResult{}, err
	}
	sketchSILP, err := translate.Build(qNoWhere, sketchRel, nil)
	if err != nil {
		return shardResult{}, err
	}
	// A medoid stands for its whole group: allow multiplicity up to the
	// group's aggregate capacity.
	for row, g := range groupOfMedoidRow {
		size := float64(len(part.Groups[g]))
		sketchSILP.VarHi[row] = math.Min(sketchSILP.VarHi[row]*size, sketchSILP.VarHi[row]+size*4)
	}
	opts := *baseOpts
	opts.Seed = seed
	sctx, ssp := obs.StartSpan(ctx, fmt.Sprintf("sketch/shard%d", shard))
	sol, err := core.SummarySearchCtx(sctx, sketchSILP, withPhase(&opts, fmt.Sprintf("sketch/shard%d", shard)))
	if err != nil || !sol.Feasible {
		ssp.SetAttr("outcome", "failed")
		ssp.End()
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return shardResult{}, err
		}
		res := shardResult{failed: true}
		if sol != nil {
			res.stop = sol.Stop()
		}
		return res, nil
	}
	ssp.End()
	res := shardResult{obj: sol.Objective, stop: sol.Stop()}
	for row, x := range sol.X {
		if x > 0 {
			res.chosen = append(res.chosen, allot{group: groupOfMedoidRow[row], count: x})
		}
	}
	if len(res.chosen) == 0 {
		res.failed = true
	}
	return res, nil
}
