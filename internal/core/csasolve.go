package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"spq/internal/fit"
	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/stream"
	"spq/internal/translate"
)

// alphaObs is one observation (α, p-surplus) for a constraint, the data the
// §5.2 curve fit consumes.
type alphaObs struct {
	alpha   float64
	surplus float64
}

// guessAlpha implements GuessOptimalConservativeness for one constraint:
// find the minimally conservative α with nonnegative predicted surplus.
// grid is the α resolution Z/M; the result is snapped up to the grid and
// kept strictly between the largest infeasible and smallest feasible α seen.
func guessAlpha(history []alphaObs, p, grid float64) float64 {
	aInf := math.Inf(-1) // largest α observed infeasible
	aFea := math.Inf(1)  // smallest α observed feasible
	for _, ob := range history {
		if ob.surplus < 0 {
			if ob.alpha > aInf {
				aInf = ob.alpha
			}
		} else if ob.alpha < aFea {
			aFea = ob.alpha
		}
	}

	var guess float64
	switch {
	case len(history) == 1:
		// Single observation (α=0 from the unconstrained solution): jump by
		// the feasibility deficit — a deeper shortfall warrants a more
		// conservative summary.
		deficit := -history[0].surplus
		if deficit <= 0 {
			return snapAlpha(grid, grid, aInf, aFea)
		}
		guess = math.Min(1, math.Max(grid, deficit+p*deficit))
	default:
		xs := make([]float64, len(history))
		ys := make([]float64, len(history))
		for i, ob := range history {
			xs[i], ys[i] = ob.alpha, ob.surplus
		}
		if f, ok := fit.FitArctan(xs, ys); ok {
			if z, ok := f.Zero(); ok {
				guess = z
			} else if z, ok := fit.ZeroCrossingLinear(xs, ys); ok {
				guess = z
			} else {
				guess = midpointGuess(aInf, aFea)
			}
		} else if z, ok := fit.ZeroCrossingLinear(xs, ys); ok {
			guess = z
		} else {
			guess = midpointGuess(aInf, aFea)
		}
	}
	return snapAlpha(guess, grid, aInf, aFea)
}

// midpointGuess targets between the known infeasible/feasible brackets.
func midpointGuess(aInf, aFea float64) float64 {
	lo := aInf
	if math.IsInf(lo, -1) {
		lo = 0
	}
	hi := aFea
	if math.IsInf(hi, 1) {
		hi = 1
	}
	return (lo + hi) / 2
}

// snapAlpha clamps a raw guess to (aInf, aFea), snaps it up to the grid
// {grid, 2·grid, …, 1}, and nudges off already-resolved values.
func snapAlpha(guess, grid float64, aInf, aFea float64) float64 {
	if guess < grid {
		guess = grid
	}
	if guess > 1 {
		guess = 1
	}
	snapped := math.Ceil(guess/grid-1e-9) * grid
	if snapped > 1 {
		snapped = 1
	}
	// Stay strictly above the largest known-infeasible α.
	if !math.IsInf(aInf, -1) && snapped <= aInf+1e-12 {
		snapped = math.Min(1, aInf+grid)
	}
	// No point exceeding the smallest known-feasible α.
	if !math.IsInf(aFea, 1) && snapped >= aFea-1e-12 {
		if aFea-grid > aInf+1e-12 {
			snapped = aFea - grid
		} else {
			snapped = aFea
		}
	}
	return snapped
}

// sameSummaries reports whether two summary groups are bit-identical in the
// values a CSA formulation reads.
func sameSummaries(a, b [][]*scenario.Summary) bool {
	return slices.EqualFunc(a, b, func(ga, gb []*scenario.Summary) bool {
		return slices.EqualFunc(ga, gb, func(sa, sb *scenario.Summary) bool {
			return slices.EqualFunc(sa.Values, sb.Values, func(u, v float64) bool {
				return math.Float64bits(u) == math.Float64bits(v)
			})
		})
	})
}

// csaState carries the evolving state of one CSA-Solve invocation.
type csaState struct {
	alphas    []float64
	histories [][]alphaObs
}

// solutionKey fingerprints (x, α) for Algorithm 3's cycle detection.
func solutionKey(x []float64, alphas []float64) string {
	var sb strings.Builder
	for i, v := range x {
		if v != 0 {
			fmt.Fprintf(&sb, "%d:%g;", i, v)
		}
	}
	sb.WriteByte('|')
	for _, a := range alphas {
		fmt.Fprintf(&sb, "%.6f;", a)
	}
	return sb.String()
}

// csaSolve is Algorithm 3: with M scenarios and Z summaries fixed, search
// for the best (minimally conservative) CSA formulation. It returns the best
// solution found (feasible if any iteration validated feasible) or nil when
// every CSA was unsolvable. It offers every validated candidate to the
// runner's incumbent and appends its iteration records to the runner's
// history. Scenarios are never materialized: the cursors realize the values
// each greedy score and summary needs, block-wise, on demand.
func (r *runner) csaSolve(x0 []float64, mCount, zCount int) (*Solution, error) {
	silp := r.silp
	k := len(silp.ProbCons)

	// Shared random partition of the scenario ids (§4.1); deterministic per
	// (seed, M, Z) so re-invocations after growing M are reproducible. The
	// partition depends only on the scenario count, never on realized
	// values, so no scenario has to exist before it is partitioned.
	partSeed := rng.Mix(r.opts.Seed, uint64(mCount), uint64(zCount))
	parts := scenario.PartitionIDs(mCount, zCount, partSeed)
	grid := float64(zCount) / float64(mCount)
	if grid > 1 {
		grid = 1
	}
	curs := make([]*stream.ScenarioCursor, k)
	for ck := range curs {
		curs[ck] = silp.ConsCursor(ck, r.optSrc, 0)
	}

	// Objective summaries for probability objectives: fully conservative
	// (α=1) per partition, so the model's satisfied-summary fraction lower
	// bounds the in-sample probability.
	var objSummaries []*scenario.Summary
	if silp.ObjKind == translate.ObjProbability {
		dir := silp.ObjDirection()
		cur := silp.ObjCursor(r.optSrc, 0)
		for _, part := range parts {
			sm, err := cur.Summarize(r.ctx, part, dir, nil, r.opts.Parallelism)
			if err != nil {
				return nil, err
			}
			objSummaries = append(objSummaries, sm)
		}
	}

	st := &csaState{
		alphas:    make([]float64, k),
		histories: make([][]alphaObs, k),
	}
	seen := map[string]bool{}
	var best *Solution
	// x is the current package: x(0) (read only) until the first solve, then
	// the last solve's package, kept in r.warm.X.
	x := x0
	prevAlphas := make([]float64, k)
	lastFeasible := false
	var prevSummaries [][]*scenario.Summary // the last formulation solved, and its solve
	var prevRes *milp.Result

	for q := 0; q < r.opts.MaxCSAIters; q++ {
		key := solutionKey(x, st.alphas)
		if seen[key] {
			return best, nil // cycle: return best from history (Alg 3 line 7)
		}
		seen[key] = true

		valStart := time.Now()
		val, err := r.validate(x)
		if err != nil {
			return nil, err
		}
		iter := Iteration{
			M:            mCount,
			Z:            zCount,
			ValidateTime: time.Since(valStart),
			Feasible:     val.Feasible,
			Objective:    val.Objective,
			Surpluses:    val.Surpluses,
		}
		r.iters = append(r.iters, iter)
		for ck := 0; ck < k; ck++ {
			st.histories[ck] = append(st.histories[ck], alphaObs{alpha: st.alphas[ck], surplus: val.Surpluses[ck]})
		}
		cand := r.asSolution(x, val, mCount, zCount)
		r.offer(len(r.iters), cand)
		if better(silp, cand, best) {
			best = cand
		}
		// Termination: feasible and (1+ε)-approximate. For probability
		// objectives require at least one CSA solve so the objective has
		// actually been optimized (the unconstrained x(0) ignores it).
		if val.Feasible && val.EpsUpper <= r.opts.Epsilon &&
			(silp.ObjKind != translate.ObjProbability || q > 0) {
			return best, nil
		}
		if r.timeUp() {
			return best, nil
		}

		// Choose the next conservativeness vector (§5.2).
		copy(prevAlphas, st.alphas)
		for ck, pc := range silp.ProbCons {
			st.alphas[ck] = guessAlpha(st.histories[ck], pc.P, grid)
		}
		lastFeasible = val.Feasible

		// Build the summaries (§5.3, §5.5) and the reduced DILP.
		sumSpan := obs.SpanFromContext(r.ctx).StartChild("summarize")
		sumSpan.SetInt("z", int64(zCount))
		summaries := make([][]*scenario.Summary, k)
		for ck, pc := range silp.ProbCons {
			cur := curs[ck]
			dir := pc.Direction()
			var accel []bool
			if !r.opts.DisableAcceleration && lastFeasible && st.alphas[ck] < prevAlphas[ck] {
				accel = make([]bool, silp.N)
				for i, xi := range x {
					accel[i] = xi > 0
				}
			}
			for _, part := range parts {
				// Greedy selection (§5.3) by score under the previous package.
				scores, err := cur.Scores(r.ctx, part, x, r.opts.Parallelism)
				if err != nil {
					sumSpan.End()
					return nil, err
				}
				chosen := scenario.Pick(part, st.alphas[ck], dir, scores)
				if len(chosen) == 0 {
					chosen = part[:1]
				}
				sm, err := cur.Summarize(r.ctx, chosen, dir, accel, r.opts.Parallelism)
				if err != nil {
					sumSpan.End()
					return nil, err
				}
				summaries[ck] = append(summaries[ck], sm)
			}
		}
		sumSpan.End()
		it := &r.iters[len(r.iters)-1]
		// A new α often picks the same scenarios: the formulation (objective
		// summaries are fixed per call) is then the one just solved, and a
		// search that ran to completion on it would return the same result.
		if prevRes == nil || !sameSummaries(summaries, prevSummaries) ||
			(prevRes.Status != milp.StatusOptimal && prevRes.Status != milp.StatusInfeasible) {
			if prevRes, err = r.solveCSA("csa", it, x, summaries, objSummaries); err != nil {
				return nil, err
			}
		}
		res := prevRes
		prevSummaries = summaries
		it.SolverStatus, it.SolverStop, it.Coefficients = res.Status, res.Stop, res.Coefficients
		if res.X == nil {
			// The conservative problem is unsolvable at these α's: back off
			// toward the grid floor; if already there, give up and let the
			// caller grow M.
			backedOff := false
			for ck := range st.alphas {
				if st.alphas[ck] > grid+1e-12 {
					st.alphas[ck] = math.Max(grid, st.alphas[ck]/2)
					st.alphas[ck] = math.Ceil(st.alphas[ck]/grid-1e-9) * grid
					backedOff = true
				}
			}
			if !backedOff {
				return best, nil
			}
			continue
		}
		x = r.warm.X // res's package, solveCSA's record of it
	}
	return best, nil
}

// solveCSA is the one CSA solve of an evaluation, cold or warm: it
// formulates CSA_{Q,M,Z} over the summaries, solves it with package x as
// the incumbent when x satisfies the formulation and as its neighbourhood
// guide otherwise (SILP.CSAPoint), and stamps the solve's work and time on
// it, whose M and Z name the formulation. A solve that finds a package
// records it as r.warm, by reference: the package (written into r.warm.X's
// buffer), the summaries, M and Z. This is the only place the warm state is
// written. The result's X may alias r.hint. The model goes back to the
// SILP (Recycle) once the solve is done with it.
func (r *runner) solveCSA(kind string, it *Iteration, x []float64, summaries [][]*scenario.Summary, objSummaries []*scenario.Summary) (*milp.Result, error) {
	model, vm, err := r.silp.FormulateCSA(summaries, objSummaries)
	if err != nil {
		return nil, err
	}
	solveStart := time.Now()
	r.hint = r.silp.CSAPoint(r.hint, x, model.NumVars(), vm, summaries, objSummaries)
	res, err := r.solveMILP(kind, model, r.solverOptions(r.hint))
	r.silp.Recycle(model)
	if err != nil {
		return nil, fmt.Errorf("core: CSA solve (M=%d, Z=%d): %w", it.M, it.Z, err)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if res.X != nil {
		r.warm = WarmStart{X: r.silp.PackageOf(r.warm.X, res.X), Summaries: summaries, ObjSummaries: objSummaries, M: it.M, Z: it.Z}
	}
	it.SolveWork, it.SolveTime = res.SolveWork, time.Since(solveStart)
	return res, nil
}
