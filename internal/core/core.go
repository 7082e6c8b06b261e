// Package core implements the paper's query-evaluation algorithms: the
// Naïve SAA optimize/validate loop (Algorithm 1), SummarySearch
// (Algorithm 2) with CSA-Solve (Algorithm 3), out-of-sample validation
// (§3.2), and the (1+ε)-approximation machinery of §5.4 / Appendix B.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/translate"
)

// Options configure query evaluation. The defaults mirror the paper's
// experimental setup at reduced scale.
type Options struct {
	// Seed drives the optimization-scenario stream; repeated runs with
	// different seeds reproduce the paper's i.i.d. run protocol.
	Seed uint64
	// ValidationSeed drives the out-of-sample validation stream. It is kept
	// separate so all runs validate against the same scenario population.
	// The zero value selects a fixed internal constant.
	ValidationSeed uint64
	// ValidationM is M̂, the number of out-of-sample validation scenarios
	// (paper: 10⁶–10⁷; default here 10000).
	ValidationM int
	// InitialM is the starting number of optimization scenarios (default 20,
	// at most MaxM).
	InitialM int
	// IncrementM is the per-iteration scenario increment m (default ==
	// InitialM).
	IncrementM int
	// MaxM caps the optimization scenarios before declaring failure
	// (paper: 1000).
	MaxM int
	// FixedZ pins the number of summaries (the per-workload Z of §6.2.1);
	// 0 lets SummarySearch escalate Z per Algorithm 2.
	FixedZ int
	// IncrementZ is the Z escalation step z (default 1).
	IncrementZ int
	// Epsilon is the user approximation bound ε (§5.4). +Inf (the default)
	// accepts the first validation-feasible solution, which is the paper's
	// time-to-feasibility protocol.
	Epsilon float64
	// MaxCSAIters caps CSA-Solve iterations per (M, Z) pair (default 25).
	MaxCSAIters int
	// DisableAcceleration turns off the §5.5 monotone-objective summary
	// modification (enabled by default) for ablations.
	DisableAcceleration bool
	// TimeLimit bounds the whole evaluation; 0 means none. Mirrors the
	// paper's 4-hour cutoff.
	TimeLimit time.Duration
	// SolverTime bounds each MILP solve (default 30s).
	SolverTime time.Duration
	// SolverNodes caps branch-and-bound nodes per solve (default 200000).
	SolverNodes int
	// RelGap is the MILP relative optimality gap (default 1e-4).
	RelGap float64
	// Parallelism is the number of worker goroutines used for scenario
	// generation, summarization, out-of-sample validation, and the
	// branch-and-bound MILP search. 0 or 1 run sequentially; a negative
	// value uses one worker per available CPU. Results are bit-identical
	// for every value: realizations are pure functions of their (attribute,
	// tuple, scenario) coordinates, the engine shards work along those
	// coordinates, and the MILP search explores nodes in deterministic
	// rounds with path-id incumbent tie-breaking (see internal/milp).
	Parallelism int
	// Progress, when non-nil, receives one report per validated candidate
	// package while the evaluation runs (see Progress). The callback must be
	// cheap and safe for concurrent use: the sketch pipeline's shard solves
	// invoke it concurrently. It observes the evaluation without influencing
	// it, so it is excluded from Key().
	Progress func(Progress)
	// CollectWarm asks the evaluation to retain the warm-start state of the
	// accepting CSA solve on Solution.Warm so a later delta re-solve can skip
	// straight to a patched formulation. Purely additive (it never changes
	// the solution), so it is excluded from Key().
	CollectWarm bool
	// Warm, when non-nil, attempts the delta re-solve fast path before the
	// cold Algorithm-2 loop: patch the previous accepted formulation's
	// summaries at Warm.Touched, re-solve seeded with the previous package
	// and root basis, and accept if the result validates feasible within ε.
	// A warm solve that does not reach an acceptable solution falls back to
	// the cold path, whose result is bit-identical to an evaluation without
	// Warm. Excluded from Key(); callers caching warm results must account
	// for the weaker identity themselves (the engine marks them
	// non-replicable).
	Warm *WarmStart
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	// Non-positive counts and budgets (possibly from unvalidated client
	// input reaching the HTTP layer) take the defaults: a negative M would
	// reach make() as a negative length.
	if out.ValidationSeed == 0 {
		out.ValidationSeed = 0x5eed0a11da7e
	}
	if out.ValidationM <= 0 {
		out.ValidationM = 10000
	}
	if out.MaxM <= 0 {
		out.MaxM = 1000
	}
	if out.InitialM <= 0 {
		out.InitialM = 20
	}
	// MaxM caps every scenario count, the first one included.
	if out.InitialM > out.MaxM {
		out.InitialM = out.MaxM
	}
	if out.IncrementM <= 0 {
		out.IncrementM = out.InitialM
	}
	if out.FixedZ < 0 {
		out.FixedZ = 0
	}
	if out.IncrementZ <= 0 {
		out.IncrementZ = 1
	}
	if out.Epsilon <= 0 {
		out.Epsilon = math.Inf(1)
	}
	if out.MaxCSAIters <= 0 {
		out.MaxCSAIters = 25
	}
	if out.SolverTime <= 0 {
		out.SolverTime = 30 * time.Second
	}
	if out.SolverNodes <= 0 {
		out.SolverNodes = 200000
	}
	if out.RelGap <= 0 {
		out.RelGap = 1e-4
	}
	return out
}

// Key renders every result-relevant option field canonically, after
// defaulting, so two Options values that evaluate identically share one key.
// The engine's result cache builds its keys from it. Parallelism and
// Progress are deliberately excluded: parallel evaluation is bit-identical
// to sequential evaluation for any worker count, and the progress callback
// only observes, so neither can change a result. Time budgets
// (TimeLimit, SolverTime, SolverNodes) are included: when a budget binds,
// the result depends on it. Nil receivers key like the zero Options.
func (o *Options) Key() string {
	eff := o.withDefaults()
	return fmt.Sprintf("s=%d,vs=%d,vm=%d,im=%d,incm=%d,maxm=%d,z=%d,incz=%d,eps=%g,csa=%d,noacc=%t,tl=%d,st=%d,sn=%d,gap=%g",
		eff.Seed, eff.ValidationSeed, eff.ValidationM, eff.InitialM, eff.IncrementM,
		eff.MaxM, eff.FixedZ, eff.IncrementZ, eff.Epsilon, eff.MaxCSAIters,
		eff.DisableAcceleration, int64(eff.TimeLimit), int64(eff.SolverTime),
		eff.SolverNodes, eff.RelGap)
}

// Iteration records one optimize/validate round for diagnostics and the
// experiment harness.
type Iteration struct {
	M            int
	Z            int // 0 for Naïve
	SolverStatus milp.Status
	Coefficients int
	// Nodes is the branch-and-bound node count of the iteration's MILP
	// solve (0 for iterations that never reached a solve or reused the
	// previous iteration's: the solver counters below likewise).
	Nodes int
	// LPIters is the total simplex iterations of the iteration's MILP solve
	// (root relaxation plus every node LP).
	LPIters int
	// WarmStarts counts node LPs of the iteration's MILP solve that were
	// reinstated from a parent basis instead of solved from scratch;
	// DegenPivots counts degenerate simplex pivots across those LPs;
	// BoundFlips counts dual iterations resolved by a bound flip (no basis
	// exchange, no eta update).
	WarmStarts  int
	DegenPivots int
	BoundFlips  int
	// PresolveRows and PresolveCols count the rows and columns the MILP
	// root presolve eliminated before the search started.
	PresolveRows int
	PresolveCols int
	SolveTime    time.Duration
	ValidateTime time.Duration
	Feasible     bool
	Objective    float64
	Surpluses    []float64
}

// Solution is the result of evaluating a stochastic package query.
type Solution struct {
	// X holds tuple multiplicities indexed like the (WHERE-filtered)
	// relation; nil when no solution was found.
	X []float64
	// Feasible reports validation feasibility (§3.2).
	Feasible bool
	// Objective is the validation estimate of the objective in the query's
	// original sense (expected sum, or satisfaction probability).
	Objective float64
	// EpsUpper is the ε′ upper bound on the approximation error (§5.4);
	// +Inf when no usable bound exists.
	EpsUpper float64
	// Surpluses holds the per-probabilistic-constraint p-surplus r_k.
	Surpluses []float64
	// SurplusCIHalf holds 95% confidence half-widths on the satisfied
	// fractions behind Surpluses (a-posteriori feasibility confidence).
	SurplusCIHalf []float64
	// M and Z are the final scenario/summary counts.
	M int
	Z int
	// Iterations is the full optimize/validate history.
	Iterations []Iteration
	// TotalTime is the end-to-end wall-clock time.
	TotalTime time.Duration
	// MILPSolves and MILPNodes count the MILP solves the evaluation ran
	// (including the unconstrained x(0) solve) and the branch-and-bound
	// nodes they explored; MILPWorkers is the largest per-solve worker
	// bound used. The engine aggregates them into its /stats counters.
	MILPSolves  int
	MILPNodes   int
	MILPWorkers int
	// LPIters is the total simplex iterations across every MILP solve of
	// the evaluation (observational, like the MILP counters above).
	LPIters int
	// WarmStarts and DegenPivots aggregate the LP kernel's warm-start and
	// degenerate-pivot counts across every MILP solve; PresolveRows and
	// PresolveCols aggregate the root-presolve reductions; BoundFlips the
	// kernel's flip-instead-of-pivot dual iterations. All observational.
	WarmStarts   int
	DegenPivots  int
	BoundFlips   int
	PresolveRows int
	PresolveCols int
	// WarmResolve reports that this solution came from the Options.Warm
	// delta fast path (a patched re-solve of a previous formulation) rather
	// than the cold Algorithm-2 loop.
	WarmResolve bool
	// Warm holds the reusable warm-start state of the accepting solve when
	// Options.CollectWarm was set; nil otherwise. Never serialized: bases
	// and summaries are process-local.
	Warm *WarmStart `json:"-"`
}

// HitLimit reports whether the evaluation was cut short by a wall-clock or
// node budget — the one way a fixed (query, options, seeds) evaluation can
// come out different between runs, since how far a budget lets the search
// get depends on machine load. The engine's result cache refuses to cache
// such best-effort solutions.
func (s *Solution) HitLimit(o *Options) bool {
	if o != nil && o.TimeLimit > 0 && s.TotalTime >= o.TimeLimit {
		return true
	}
	for _, it := range s.Iterations {
		if it.SolverStatus == milp.StatusLimit {
			return true
		}
	}
	return false
}

// PackageSize returns Σ x_i.
func (s *Solution) PackageSize() float64 {
	total := 0.0
	for _, x := range s.X {
		total += x
	}
	return total
}

// runner holds per-evaluation state shared by the algorithms.
type runner struct {
	silp   *translate.SILP
	opts   Options
	ctx    context.Context
	optSrc rng.Source
	valSrc rng.Source

	start    time.Time
	deadline time.Time
	hasDL    bool

	// Cached objective inner-function value range probe for ω bounds.
	probed   bool
	sLo, sHi float64
	sizeLo   float64
	sizeHi   float64

	// val is the validation state, built by the first validate.
	val *validator

	// MILP accounting across every solve of the evaluation (see
	// Solution.MILPSolves); stamped onto the returned Solution by finish.
	milpSolves   int
	milpNodes    int
	milpWorkers  int
	lpIters      int
	warmStarts   int
	degenPivots  int
	boundFlips   int
	presolveRows int
	presolveCols int

	// warm is the most recent CSA solve's reusable warm-start state, kept
	// only under Options.CollectWarm; finish attaches it to the returned
	// solution when the accepted package is the one it was collected for.
	warm *WarmStart
}

func newRunner(ctx context.Context, silp *translate.SILP, o *Options) *runner {
	if ctx == nil {
		ctx = context.Background()
	}
	opts := o.withDefaults()
	r := &runner{
		silp:   silp,
		opts:   opts,
		ctx:    ctx,
		optSrc: rng.NewSource(opts.Seed).Derive(1),
		valSrc: rng.NewSource(opts.ValidationSeed).Derive(2),
		start:  time.Now(),
	}
	if opts.TimeLimit > 0 {
		r.deadline = r.start.Add(opts.TimeLimit)
		r.hasDL = true
	}
	if dl, ok := ctx.Deadline(); ok && (!r.hasDL || dl.Before(r.deadline)) {
		r.deadline = dl
		r.hasDL = true
	}
	r.sizeLo, r.sizeHi = packageSizeBounds(silp)
	return r
}

func (r *runner) timeUp() bool {
	if r.ctx.Err() != nil {
		return true
	}
	return r.hasDL && time.Now().After(r.deadline)
}

// solverOptions builds per-solve MILP options respecting the remaining
// global budget, optionally seeding the incumbent.
func (r *runner) solverOptions(initial []float64) *milp.Options {
	limit := r.opts.SolverTime
	if r.hasDL {
		if rem := time.Until(r.deadline); rem < limit {
			limit = rem
		}
		if limit <= 0 {
			limit = time.Millisecond
		}
	}
	return &milp.Options{
		TimeLimit:   limit,
		MaxNodes:    r.opts.SolverNodes,
		RelGap:      r.opts.RelGap,
		InitialX:    initial,
		Cancel:      r.ctx.Done(),
		Parallelism: r.opts.Parallelism,
	}
}

// noteSolve accumulates one MILP solve into the runner's accounting.
func (r *runner) noteSolve(res *milp.Result) {
	r.milpSolves++
	r.milpNodes += res.Nodes
	r.lpIters += res.LPIters
	r.warmStarts += res.WarmStarts
	r.degenPivots += res.DegenPivots
	r.boundFlips += res.BoundFlips
	r.presolveRows += res.PresolveRows
	r.presolveCols += res.PresolveCols
	if res.Workers > r.milpWorkers {
		r.milpWorkers = res.Workers
	}
}

// solveMILP runs one MILP solve under a "solve" trace span carrying the
// per-solve LP statistics (simplex iterations, branch-and-bound nodes and
// rounds) and folds the result into the runner's accounting. Tracing is
// observational: on an untraced context the span calls are inert no-ops.
func (r *runner) solveMILP(kind string, model *milp.Model, opts *milp.Options) (*milp.Result, error) {
	sp := obs.SpanFromContext(r.ctx).StartChild("solve")
	sp.SetAttr("kind", kind)
	res, err := milp.Solve(model, opts)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.SetAttr("status", res.Status.String())
	sp.SetInt("nodes", int64(res.Nodes))
	sp.SetInt("rounds", int64(res.Rounds))
	sp.SetInt("lp_iters", int64(res.LPIters))
	sp.SetInt("warm_starts", int64(res.WarmStarts))
	sp.SetInt("degen_pivots", int64(res.DegenPivots))
	sp.SetInt("bound_flips", int64(res.BoundFlips))
	sp.SetInt("presolve_rows", int64(res.PresolveRows))
	sp.SetInt("presolve_cols", int64(res.PresolveCols))
	sp.End()
	r.noteSolve(res)
	return res, nil
}

// generateSets is GenerateSetsP under a "generate" trace span.
func (r *runner) generateSets(first, m int) ([]*scenario.Set, *scenario.Set, error) {
	sp := obs.SpanFromContext(r.ctx).StartChild("generate")
	sp.SetInt("m", int64(m))
	defer sp.End()
	return r.silp.GenerateSetsP(r.ctx, r.optSrc, first, m, r.opts.Parallelism)
}

// finish stamps end-of-evaluation bookkeeping (wall-clock time, MILP
// accounting) onto the solution about to be returned.
func (r *runner) finish(sol *Solution) *Solution {
	sol.TotalTime = time.Since(r.start)
	sol.MILPSolves = r.milpSolves
	sol.MILPNodes = r.milpNodes
	sol.MILPWorkers = r.milpWorkers
	sol.LPIters = r.lpIters
	sol.WarmStarts = r.warmStarts
	sol.DegenPivots = r.degenPivots
	sol.BoundFlips = r.boundFlips
	sol.PresolveRows = r.presolveRows
	sol.PresolveCols = r.presolveCols
	// Attach the collected warm-start state only when the returned package
	// is the one the accepting CSA solve produced (a best-effort solution
	// from an earlier iteration would not match its formulation).
	if r.warm != nil && sol.Feasible && sameX(sol.X, r.warm.X) {
		sol.Warm = r.warm
	}
	return sol
}
