package core

import (
	"context"
	"errors"
	"fmt"

	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/translate"
)

// ErrInfeasible is returned when the deterministic part of a query (the
// probabilistically-unconstrained problem Q0) already admits no solution.
var ErrInfeasible = errors.New("core: query is infeasible (deterministic constraints unsatisfiable)")

// solveUnconstrained computes x(0), the solution to SAA(Q0, M̂): the query
// devoid of probabilistic constraints, with expectations estimated from the
// precomputed means (Algorithm 2, line 2). It is the least conservative
// starting point (equivalent to α = 0 summaries). It depends on the SILP and
// the solver budget alone, so an optimal one is memoised on the SILP; the
// returned slice may be that shared copy and is read only.
func (r *runner) solveUnconstrained() ([]float64, error) {
	silp := r.silp
	if x := silp.X0(r.opts.SolverNodes, r.opts.RelGap); x != nil {
		memoHit(r.ctx, "unconstrained")
		return x, nil
	}
	model, _ := silp.FormulateUnconstrained()
	res, err := r.solveMILP("unconstrained", model, r.solverOptions(nil))
	silp.Recycle(model)
	if err != nil {
		return nil, err
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if res.X == nil {
		if res.Status == milp.StatusInfeasible {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("core: unconstrained solve failed: %v", res.Status)
	}
	x := make([]float64, silp.N)
	for i := range x {
		x[i] = res.X[i] // x_i is variable i
		if x[i] < 0.5 && x[i] > -0.5 {
			x[i] = 0
		}
	}
	if res.Status == milp.StatusOptimal {
		silp.SetX0(r.opts.SolverNodes, r.opts.RelGap, x)
	}
	return x, nil
}

// memoHit records a "memo" span: a result of kind taken from the SILP's memo.
func memoHit(ctx context.Context, kind string) {
	sp := obs.SpanFromContext(ctx).StartChild("memo")
	sp.SetAttr("kind", kind)
	sp.End()
}

// SummarySearch evaluates a stochastic package query with Algorithm 2:
// solve the probabilistically-unconstrained problem for x(0), then run
// CSA-Solve with increasing numbers of summaries (Z) and, when CSA-Solve
// cannot reach feasibility, increasing numbers of scenarios (M).
func SummarySearch(silp *translate.SILP, o *Options) (*Solution, error) {
	return SummarySearchCtx(context.Background(), silp, o)
}

// SummarySearchCtx is SummarySearch under a context: cancellation aborts the
// evaluation promptly (scenario generation, validation, and the MILP search
// all observe ctx) and returns ctx's error. A context deadline acts like
// Options.TimeLimit once a feasible package has been validated: the
// evaluation ends with the best one, which HitLimit reports as budget-cut
// (see runner.settle). Before that, expiry is ctx's error.
func SummarySearchCtx(ctx context.Context, silp *translate.SILP, o *Options) (*Solution, error) {
	r := newRunner(ctx, silp, o)
	return r.settle(r.summarySearch())
}

// summarySearch is Algorithm 2 on the runner's evaluation. csaSolve returns
// the best of its own call, which drives the Z/M decisions; the answer is
// the runner's incumbent, the best of every call.
func (r *runner) summarySearch() (*Solution, error) {
	silp := r.silp

	// Delta re-solve fast path (Options.Warm): patch the previous accepted
	// formulation and re-solve warm. Any miss — stale shape, unsolvable,
	// validation-infeasible — falls through to the cold loop below.
	if r.opts.Warm != nil {
		sol, err := r.tryWarm()
		if err != nil {
			return nil, err
		}
		if sol != nil {
			return r.finish(sol), nil
		}
	}

	x0, err := r.solveUnconstrained()
	if err != nil {
		return nil, err
	}

	// A query with no probabilistic component reduces to the deterministic
	// package query: x(0) is the answer.
	if len(silp.ProbCons) == 0 && silp.ObjKind != translate.ObjProbability {
		val, err := r.validate(x0)
		if err != nil {
			return nil, err
		}
		sol := r.asSolution(x0, val, 0, 0)
		r.offer(1, sol)
		return r.finish(sol), nil
	}

	m := r.opts.InitialM
	z := 1
	if r.opts.FixedZ > 0 {
		z = r.opts.FixedZ
	}

	for {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		if z > m {
			z = m
		}
		sol, err := r.csaSolve(x0, m, z)
		if err != nil {
			return nil, err
		}
		switch {
		case sol != nil && sol.Feasible && sol.EpsUpper <= r.opts.Epsilon:
			// Feasible and (1+ε)-approximate: done (Alg 2 line 7).
			return r.finish(r.best), nil
		case sol != nil && sol.Feasible && r.opts.FixedZ == 0 && z < m && !r.timeUp():
			// Feasible but not accurate enough: more summaries (line 9).
			z += r.opts.IncrementZ
			continue
		case sol != nil && sol.Feasible:
			// Feasible but Z cannot grow (pinned or at M): best effort.
			return r.finish(r.best), nil
		}
		// Infeasible: more scenarios (line 11).
		if m >= r.opts.MaxM || r.timeUp() {
			break
		}
		m = min(m+r.opts.IncrementM, r.opts.MaxM)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	best := r.best
	if best == nil {
		best = &Solution{Z: z, EpsUpper: infEps()}
	}
	best.M = m // report the final scenario count reached before giving up
	return r.finish(best), nil
}
