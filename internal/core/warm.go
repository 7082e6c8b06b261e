package core

import (
	"time"

	"spq/internal/lp"
	"spq/internal/obs"
	"spq/internal/scenario"
	"spq/internal/translate"
)

// WarmStart carries the reusable state of a completed SummarySearch
// evaluation so a re-solve after a small relation delta can start from the
// previous CSA formulation instead of from scratch: the accepted package, the
// α-summaries the accepting MILP was built from, the root relaxation's
// optimal basis, and the (M, Z) the evaluation converged at. The engine
// collects one per cached result (Options.CollectWarm) and, when a delta
// later touches the relation, hands it back with the delta's tuple footprint
// in Touched (see Options.Warm).
//
// A warm start is advisory at every layer: summaries are patched only at the
// touched tuples (bit-identical to re-summarizing, because realizations are
// pure per-coordinate functions), the LP kernel rejects a basis whose shape
// no longer matches, and a warm solve that fails to validate falls back to
// the cold path. It never crosses process boundaries (not serialized).
type WarmStart struct {
	// X is the accepted package of the previous evaluation. Mapped into the
	// patched formulation's variable space, it is the re-solve's incumbent
	// when it still satisfies the formulation and its neighbourhood guide
	// otherwise.
	X []float64
	// Summaries holds the per-probabilistic-constraint summary groups of the
	// accepting CSA formulation; ObjSummaries the probability-objective
	// summaries (nil otherwise).
	Summaries    [][]*scenario.Summary
	ObjSummaries []*scenario.Summary
	// Basis is the accepting solve's root-relaxation optimal basis.
	Basis *lp.Basis
	// M and Z are the scenario and summary counts the evaluation accepted at.
	M, Z int
	// Touched lists the tuple indices (in the evaluation's relation indexing)
	// a delta changed since the warm state was collected. The warm path
	// re-folds exactly these tuples of every summary. The producer leaves it
	// nil; the caller scheduling the re-solve fills it in.
	Touched []int
}

// tryWarm attempts the delta re-solve fast path: patch the previous accepted
// CSA formulation's summaries at the touched tuples, re-solve the MILP seeded
// with the previous package and root basis, and accept the result if it
// validates feasible within ε. It returns (nil, nil) when the warm state does
// not fit this evaluation or the warm solve does not reach an acceptable
// solution — the caller then runs the cold path from the top.
func (r *runner) tryWarm() (*Solution, error) {
	w := r.opts.Warm
	silp := r.silp
	if w == nil || len(w.X) != silp.N || len(w.Summaries) != len(silp.ProbCons) {
		return nil, nil
	}
	// Deterministic-only queries have no summaries to reuse, and a
	// probability objective needs its summary group.
	if len(silp.ProbCons) == 0 && silp.ObjKind != translate.ObjProbability {
		return nil, nil
	}
	if silp.ObjKind == translate.ObjProbability && len(w.ObjSummaries) == 0 {
		return nil, nil
	}

	// Patch every summary of the accepting formulation at the touched tuples
	// against the post-delta relation (k×M work instead of N×M).
	sp := obs.SpanFromContext(r.ctx).StartChild("summarize")
	sp.SetAttr("kind", "patch")
	sp.SetInt("z", int64(w.Z))
	sp.SetInt("touched", int64(len(w.Touched)))
	summaries := make([][]*scenario.Summary, len(w.Summaries))
	for ck := range w.Summaries {
		cur := silp.ConsCursor(ck, r.optSrc, 0)
		for _, sm := range w.Summaries[ck] {
			p, err := cur.PatchSummarize(r.ctx, sm, w.Touched)
			if err != nil {
				sp.End()
				return nil, err
			}
			summaries[ck] = append(summaries[ck], p)
		}
	}
	var objSummaries []*scenario.Summary
	if len(w.ObjSummaries) > 0 {
		cur := silp.ObjCursor(r.optSrc, 0)
		for _, sm := range w.ObjSummaries {
			p, err := cur.PatchSummarize(r.ctx, sm, w.Touched)
			if err != nil {
				sp.End()
				return nil, err
			}
			objSummaries = append(objSummaries, p)
		}
	}
	sp.End()

	model, vm, err := silp.FormulateCSA(summaries, objSummaries)
	if err != nil {
		return nil, nil // formulation no longer fits: cold fallback
	}
	r.hint = silp.CSAPoint(r.hint, w.X, model.NumVars(), vm, summaries, objSummaries)
	opts := r.solverOptions(r.hint)
	opts.RootBasis = w.Basis
	opts.WantRootBasis = r.opts.CollectWarm
	solveStart := time.Now()
	res, err := r.solveMILP("csa-warm", model, opts)
	if err != nil {
		return nil, err
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if res.X == nil {
		return nil, nil
	}
	x := vm.PackageOf(nil, res.X)
	valStart := time.Now()
	val, err := r.validate(x)
	if err != nil {
		return nil, err
	}
	r.iters = append(r.iters, Iteration{
		M:            w.M,
		Z:            w.Z,
		SolverStatus: res.Status,
		Coefficients: res.Coefficients,
		SolveWork:    res.SolveWork,
		SolveTime:    valStart.Sub(solveStart),
		ValidateTime: time.Since(valStart),
		Feasible:     val.Feasible,
		Objective:    val.Objective,
		Surpluses:    val.Surpluses,
	})
	if !val.Feasible || val.EpsUpper > r.opts.Epsilon {
		return nil, nil
	}
	sol := r.asSolution(x, val, w.M, w.Z)
	sol.WarmResolve = true
	if r.opts.CollectWarm {
		r.warm = &WarmStart{X: sol.X, Summaries: summaries, ObjSummaries: objSummaries, Basis: res.RootBasis, M: w.M, Z: w.Z}
	}
	r.offer(len(r.iters), sol)
	return sol, nil
}

// sameX reports element-wise equality of two packages.
func sameX(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
