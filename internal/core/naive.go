package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spq/internal/obs"
	"spq/internal/scenario"
	"spq/internal/translate"
)

// Naive evaluates a stochastic package query with the Algorithm 1
// optimize/validate loop: formulate SAA_{Q,M}, solve, validate against M̂
// out-of-sample scenarios, and grow M until validation succeeds or a limit
// is reached. The returned Solution reports the best package found (possibly
// infeasible) along with the full iteration history.
//
// SAA_{Q,M} is CSA_{Q,M,M}: the α-summary of a one-scenario partition is
// that scenario, so the model is FormulateCSA over M singleton summaries.
func Naive(silp *translate.SILP, o *Options) (*Solution, error) {
	return NaiveCtx(context.Background(), silp, o)
}

// NaiveCtx is Naive under a context; cancellation aborts the evaluation
// promptly and returns ctx's error (see SummarySearchCtx).
func NaiveCtx(ctx context.Context, silp *translate.SILP, o *Options) (*Solution, error) {
	r := newRunner(ctx, silp, o)
	return r.settle(r.naive())
}

// naive is Algorithm 1 on the runner's evaluation.
func (r *runner) naive() (*Solution, error) {
	silp := r.silp
	m := r.opts.InitialM
	sums, objSums, err := r.singletons(nil, nil, 0, m)
	if err != nil {
		return nil, err
	}
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		model, _, err := silp.FormulateCSA(sums, objSums)
		if err != nil {
			return nil, err
		}
		solveStart := time.Now()
		res, err := r.solveMILP("saa", model, r.solverOptions(nil))
		silp.Recycle(model)
		if err != nil {
			return nil, fmt.Errorf("core: naive solve with M=%d: %w", m, err)
		}
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		iter := Iteration{
			M:            m,
			SolverStatus: res.Status,
			SolverStop:   res.Stop,
			Coefficients: res.Coefficients,
			SolveWork:    res.SolveWork,
			SolveTime:    time.Since(solveStart),
		}
		if res.X != nil {
			x := silp.PackageOf(nil, res.X)
			valStart := time.Now()
			val, err := r.validate(x)
			if err != nil {
				return nil, err
			}
			iter.ValidateTime = time.Since(valStart)
			iter.Feasible = val.Feasible
			iter.Objective = val.Objective
			iter.Surpluses = val.Surpluses
			r.iters = append(r.iters, iter)
			cand := r.asSolution(x, val, m, 0)
			r.offer(len(r.iters), cand)
			if val.Feasible {
				return r.finish(r.best), nil
			}
		} else {
			r.iters = append(r.iters, iter)
		}
		if m >= r.opts.MaxM || r.timeUp() {
			break
		}
		grow := r.opts.IncrementM
		if m+grow > r.opts.MaxM {
			grow = r.opts.MaxM - m
		}
		if sums, objSums, err = r.singletons(sums, objSums, m, grow); err != nil {
			return nil, err
		}
		m += grow
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	// Failure: report the best (infeasible) attempt, or an empty solution.
	best := r.best
	if best == nil {
		best = &Solution{EpsUpper: infEps()}
	}
	best.M = m // report the final scenario count reached before giving up
	return r.finish(best), nil
}

// singletons appends to sums (one group per probabilistic constraint) and
// objSums (the probability objective's group) the summaries of the
// one-scenario partitions {first}, …, {first+m−1}, in scenario order, under
// a "generate" trace span.
func (r *runner) singletons(sums [][]*scenario.Summary, objSums []*scenario.Summary, first, m int) ([][]*scenario.Summary, []*scenario.Summary, error) {
	sp := obs.SpanFromContext(r.ctx).StartChild("generate")
	sp.SetInt("m", int64(m))
	defer sp.End()
	parts := make([][]int, m)
	for j := range parts {
		parts[j] = []int{first + j}
	}
	more, moreObj, err := r.silp.SummarizeParts(r.ctx, r.optSrc, parts, r.opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	if sums == nil {
		sums = make([][]*scenario.Summary, len(more))
	}
	for k := range sums {
		sums[k] = append(sums[k], more[k]...)
	}
	return sums, append(objSums, moreObj...), nil
}

// asSolution packages a validated point into a Solution snapshot; finish
// stamps the iteration history on the one that is returned.
func (r *runner) asSolution(x []float64, val *Validation, m, z int) *Solution {
	return &Solution{
		X:             append([]float64(nil), x...),
		Feasible:      val.Feasible,
		Objective:     val.Objective,
		EpsUpper:      val.EpsUpper,
		Surpluses:     append([]float64(nil), val.Surpluses...),
		SurplusCIHalf: append([]float64(nil), val.CIHalf...),
		M:             m,
		Z:             z,
	}
}

// better reports whether a should replace b as the incumbent: feasibility
// first, then objective value in the query's original sense.
func better(silp *translate.SILP, a, b *Solution) bool {
	if a == nil {
		return false
	}
	if b == nil || b.X == nil {
		return true
	}
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if silp.Maximize {
		return a.Objective > b.Objective
	}
	return a.Objective < b.Objective
}

func infEps() float64 { return math.Inf(1) }
