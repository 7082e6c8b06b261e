package core

import (
	"time"

	"spq/internal/obs"
	"spq/internal/scenario"
	"spq/internal/translate"
)

// WarmStart carries the reusable state of a completed SummarySearch
// evaluation so a re-solve after a small relation delta can start from the
// previous CSA formulation instead of from scratch: the accepted package, the
// α-summaries the accepting MILP was built from, and the (M, Z) the
// evaluation converged at. Every evaluation records it (runner.solveCSA) and
// attaches it to an answer a CSA solve produced (Solution.Warm); when a delta
// later touches the relation, the engine hands it back with the delta's
// tuple footprint in Touched (see Options.Warm).
//
// A warm start is advisory: summaries are patched only at the touched tuples
// (bit-identical to re-summarizing, because realizations are pure
// per-coordinate functions), and a warm solve that fails to validate falls
// back to the cold path. It never crosses process boundaries (not
// serialized).
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
// with the previous package, and accept the result if it validates feasible
// within ε. It returns (nil, nil) when the warm state does not fit this
// evaluation or the warm solve does not reach an acceptable solution — the
// caller then runs the cold path from the top.
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

	it := Iteration{M: w.M, Z: w.Z}
	res, err := r.solveCSA("csa-warm", &it, w.X, summaries, objSummaries)
	if err != nil || res.X == nil {
		return nil, err
	}
	valStart := time.Now()
	val, err := r.validate(r.warm.X)
	if err != nil {
		return nil, err
	}
	it.SolverStatus, it.SolverStop, it.Coefficients = res.Status, res.Stop, res.Coefficients
	it.ValidateTime = time.Since(valStart)
	it.Feasible, it.Objective, it.Surpluses = val.Feasible, val.Objective, val.Surpluses
	r.iters = append(r.iters, it)
	if !val.Feasible || val.EpsUpper > r.opts.Epsilon {
		return nil, nil
	}
	sol := r.asSolution(r.warm.X, val, w.M, w.Z)
	sol.WarmResolve = true
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
