// Package core implements the paper's query-evaluation algorithms: the
// Naïve SAA optimize/validate loop (Algorithm 1), SummarySearch
// (Algorithm 2) with CSA-Solve (Algorithm 3), out-of-sample validation
// (§3.2), and the (1+ε)-approximation machinery of §5.4 / Appendix B.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"spq/client"
	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/rng"
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
	// generation, summarization and out-of-sample validation; each MILP
	// solve runs on the goroutine that evaluates the query. 0 or 1 run
	// sequentially; a negative value uses one worker per available CPU.
	// Results are bit-identical for every value: realizations are pure
	// functions of their (attribute, tuple, scenario) coordinates, and the
	// engine shards work along those coordinates.
	Parallelism int
	// Progress, when non-nil, receives one report per validated candidate
	// package while the evaluation runs (see Progress). The callback must be
	// cheap and safe for concurrent use: the sketch pipeline's shard solves
	// invoke it concurrently. It observes the evaluation without influencing
	// it, so it is excluded from Key().
	Progress func(Progress)
	// Warm, when non-nil, attempts the delta re-solve fast path before the
	// cold Algorithm-2 loop: patch the previous accepted formulation's
	// summaries at Warm.Touched, re-solve seeded with the previous package,
	// and accept if the result validates feasible within ε. A warm solve
	// that does not reach an acceptable solution falls back to the cold
	// path, whose result is bit-identical to an evaluation without Warm. An
	// accepted warm answer may be another package than a cold solve's when
	// the delta moved the optimum. Excluded from Key(); callers caching warm
	// results must account for that weaker identity themselves.
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
	// SolverStop is why the iteration's MILP solve ended (see milp.Stop).
	SolverStop   milp.Stop
	Coefficients int
	// SolveWork is the work of the iteration's MILP solve (zero for
	// iterations that never reached a solve or reused the previous
	// iteration's).
	client.SolveWork
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
	// SolveTotals sums the work of every MILP solve the evaluation ran
	// (including the unconstrained x(0) solve). Observational; the engine
	// aggregates it into its /stats counters.
	client.SolveTotals
	// WarmResolve reports that this solution came from the Options.Warm
	// delta fast path (a patched re-solve of a previous formulation) rather
	// than the cold Algorithm-2 loop.
	WarmResolve bool
	// Warm holds the formulation of the CSA solve that produced the
	// returned package (see WarmStart); nil when no CSA solve did, as for
	// x(0), Naïve and sketch answers. Never serialized: summaries are
	// process-local.
	Warm *WarmStart `json:"-"`
	// stop marks the budget that bound the evaluation, the gravest in
	// milp.Stop's order: where any of its MILP solves stopped, x(0)'s
	// included (runner.solveMILP), or a time cap when a context deadline
	// ended it (runner.settle) or it ran past Options.TimeLimit
	// (runner.finish).
	stop milp.Stop
}

// Stop reports the budget that bound the evaluation: milp.StopTimeCap for
// a wall-clock one (SolverTime, TimeLimit, a deadline), milp.StopCancelled,
// or milp.StopNodeCap (SolverNodes, or a root LP's iteration cap); the
// gravest when several did, milp.StopComplete when none did. It is the
// mark HitLimit reads.
func (s *Solution) Stop() milp.Stop { return s.stop }

// RaiseStop raises the stop mark to stop when that is graver. A pipeline
// that composes evaluations (sketch's shard solves ahead of its refine)
// folds the budgets that bound the earlier ones into its answer's mark.
func (s *Solution) RaiseStop(stop milp.Stop) { s.stop = max(s.stop, stop) }

// HitLimit reports whether a budget cut the evaluation short. The engine's
// result cache refuses to cache such best-effort solutions. It counts an
// evaluation past o.TimeLimit; a context deadline, whatever o.TimeLimit is;
// any MILP solve that stopped on time or cancellation, with or without a
// package, since how far a wall-clock budget lets the search get depends on
// machine load; and a round that any budget left without a package. A node
// cap that still found a package repeats run to run, and budgets are part of
// Options.Key, so it does not count.
func (s *Solution) HitLimit(o *Options) bool {
	if s.stop == milp.StopTimeCap || s.stop == milp.StopCancelled || (o != nil && o.TimeLimit > 0 && s.TotalTime >= o.TimeLimit) {
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

	// val is the validation state, built by the first validate the SILP's
	// memo cannot answer; valKey is the memo key of the package being
	// validated.
	val    *validator
	valKey []byte

	// totals is the MILP accounting across every solve of the evaluation;
	// finish stamps it onto the returned Solution, with stop.
	totals client.SolveTotals
	stop   milp.Stop // see Solution.stop

	// iters is the evaluation's optimize/validate history.
	iters []Iteration

	// best is the evaluation's one incumbent, the anytime answer: offer
	// proposes every validated candidate to it under better, progress
	// reports read it, and a context deadline ends the evaluation with it.
	best *Solution

	// warm is the latest CSA solve's formulation, recorded by reference by
	// solveCSA: X is the buffer that holds its package. finish attaches it
	// to the returned solution when the accepted package is that one.
	warm WarmStart
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
// global budget.
func (r *runner) solverOptions() *milp.Options {
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
		TimeLimit: limit,
		MaxNodes:  r.opts.SolverNodes,
		RelGap:    r.opts.RelGap,
		Cancel:    r.ctx.Done(),
	}
}

// solveMILP runs one MILP solve under a "solve" trace span carrying the
// per-solve LP statistics (simplex iterations, branch-and-bound nodes and
// rounds, the root presolve's time and the variables the formulation
// pinned) and folds the result into the runner's accounting. Tracing is
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
	sp.SetInt("presolve_us", res.PresolveTime.Microseconds())
	if sp != nil { // counting the pins walks the model
		sp.SetInt("pinned_cols", int64(model.NumPinned()))
	}
	sp.End()
	r.totals.Add(res.SolveWork)
	stop := res.Stop
	if stop == milp.StopCancelled && errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
		stop = milp.StopTimeCap // the context's deadline closed Options.Cancel
	}
	r.stop = max(r.stop, stop)
	return res, nil
}

// settle applies the anytime contract to an evaluation's outcome. A context
// deadline is a budget like Options.TimeLimit: once a feasible incumbent
// exists, a DeadlineExceeded from any phase ends the evaluation with that
// incumbent, which HitLimit then reports as budget-cut. Without one the
// error stands, and cancellation is always an error.
func (r *runner) settle(sol *Solution, err error) (*Solution, error) {
	if !errors.Is(err, context.DeadlineExceeded) || r.best == nil || !r.best.Feasible {
		return sol, err
	}
	r.stop = max(r.stop, milp.StopTimeCap)
	return r.finish(r.best), nil
}

// finish stamps end-of-evaluation bookkeeping (wall-clock time, the full
// iteration history, MILP accounting) onto the solution about to be
// returned.
func (r *runner) finish(sol *Solution) *Solution {
	sol.TotalTime = time.Since(r.start)
	sol.Iterations = r.iters
	sol.SolveTotals = r.totals
	if r.opts.TimeLimit > 0 && sol.TotalTime >= r.opts.TimeLimit {
		r.stop = max(r.stop, milp.StopTimeCap)
	}
	sol.stop = r.stop
	// Attach the latest CSA formulation only when the returned package is
	// the one its solve produced (a best-effort solution from an earlier
	// iteration would not match it).
	if r.warm.X != nil && sol.Feasible && slices.Equal(sol.X, r.warm.X) {
		w := r.warm
		w.X = sol.X
		sol.Warm = &w
	}
	return sol
}
