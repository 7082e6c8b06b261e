package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spq/internal/scenario"
	"spq/internal/translate"
)

// Naive evaluates a stochastic package query with the Algorithm 1
// optimize/validate loop: formulate SAA_{Q,M}, solve, validate against M̂
// out-of-sample scenarios, and grow M until validation succeeds or a limit
// is reached. The returned Solution reports the best package found (possibly
// infeasible) along with the full iteration history.
func Naive(silp *translate.SILP, o *Options) (*Solution, error) {
	return NaiveCtx(context.Background(), silp, o)
}

// NaiveCtx is Naive under a context; cancellation aborts the evaluation
// promptly and returns ctx's error (see SummarySearchCtx).
func NaiveCtx(ctx context.Context, silp *translate.SILP, o *Options) (*Solution, error) {
	r := newRunner(ctx, silp, o)
	sol := &Solution{EpsUpper: infEps()}

	m := r.opts.InitialM
	sets, objSet, err := r.generateSets(0, m)
	if err != nil {
		return nil, err
	}
	var best *Solution
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		model, vm, err := silp.FormulateSAA(sets, objSet)
		if err != nil {
			return nil, err
		}
		solveStart := time.Now()
		res, err := r.solveMILP("saa", model, r.solverOptions(nil))
		if err != nil {
			return nil, fmt.Errorf("core: naive solve with M=%d: %w", m, err)
		}
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		iter := Iteration{
			M:            m,
			SolverStatus: res.Status,
			Coefficients: res.Coefficients,
			Nodes:        res.Nodes,
			LPIters:      res.LPIters,
			WarmStarts:   res.WarmStarts,
			DegenPivots:  res.DegenPivots,
			BoundFlips:   res.BoundFlips,
			PresolveRows: res.PresolveRows,
			PresolveCols: res.PresolveCols,
			SolveTime:    time.Since(solveStart),
		}
		if res.X != nil {
			x := vm.PackageOf(res.X)
			valStart := time.Now()
			val, err := r.validate(x)
			if err != nil {
				return nil, err
			}
			iter.ValidateTime = time.Since(valStart)
			iter.Feasible = val.Feasible
			iter.Objective = val.Objective
			iter.Surpluses = val.Surpluses
			sol.Iterations = append(sol.Iterations, iter)
			cand := r.asSolution(x, val, m, 0, sol.Iterations)
			improved := better(silp, cand, best)
			if improved {
				best = cand
			}
			r.progress(len(sol.Iterations), m, 0, val, cand.X, improved, best)
			if val.Feasible {
				return r.finish(best), nil
			}
		} else {
			sol.Iterations = append(sol.Iterations, iter)
		}
		if m >= r.opts.MaxM || r.timeUp() {
			break
		}
		grow := r.opts.IncrementM
		if m+grow > r.opts.MaxM {
			grow = r.opts.MaxM - m
		}
		more, moreObj, err := r.generateSets(m, grow)
		if err != nil {
			return nil, err
		}
		for k, set := range more {
			appendRows(sets[k], set)
		}
		if objSet != nil {
			appendRows(objSet, moreObj)
		}
		m += grow
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	// Failure: report the best (infeasible) attempt, or an empty solution.
	if best == nil {
		best = sol
	}
	best.M = m // report the final scenario count reached before giving up
	return r.finish(best), nil
}

// appendRows appends the scenarios of more to set, keeping their IDs.
func appendRows(set, more *scenario.Set) {
	for j, id := range more.IDs {
		set.AppendRow(id, more.Row(j))
	}
}

// asSolution packages a validated point into a Solution snapshot.
func (r *runner) asSolution(x []float64, val *Validation, m, z int, iters []Iteration) *Solution {
	return &Solution{
		X:             append([]float64(nil), x...),
		Feasible:      val.Feasible,
		Objective:     val.Objective,
		EpsUpper:      val.EpsUpper,
		Surpluses:     append([]float64(nil), val.Surpluses...),
		SurplusCIHalf: append([]float64(nil), val.CIHalf...),
		M:             m,
		Z:             z,
		Iterations:    iters,
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
