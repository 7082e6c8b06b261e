package core

import (
	"context"
	"math"

	"spq/internal/obs"
	"spq/internal/par"
	"spq/internal/spaql"
	"spq/internal/stream"
	"spq/internal/translate"
)

// This file implements the (1+ε)-approximation machinery of §5.4 and
// Appendix B: bounds ω̲ ≤ ω̂ ≤ ω̄ on the optimal validation objective ω̂,
// assembled from
//
//	(A1) bounds s̲ ≤ ŝ_ij ≤ s̄ on realized objective inner-function values,
//	     probed over scenarios of all tuples (the paper's loose global
//	     min/max);
//	(A2) bounds l̲ ≤ Σx̂ ≤ l̄ on the optimal package size, derived from
//	     COUNT constraints and the per-tuple multiplicity bounds;
//	(B1) the constraint-agnostic bounds of Table 1; and
//	(B2) the constraint-specific bounds of Table 2 for probabilistic
//	     constraints whose inner function equals the objective's
//	     (supporting/counteracting, Definition 2).
//
// ε′ then follows from Propositions 2–5 depending on the optimization sense
// and objective sign.

// probeScenarios is the number of scenarios used to estimate the value range
// of the objective inner function across all tuples.
const probeScenarios = 64

// probeCheckEvery is how many tuples a probe shard realizes between
// cancellation checks.
const probeCheckEvery = 64

// packageSizeBounds derives (A2) from the SILP: COUNT rows are recognized as
// deterministic rows whose coefficients are all exactly 1.
func packageSizeBounds(s *translate.SILP) (lo, hi float64) {
	lo = 0
	hi = 0
	for _, h := range s.VarHi {
		hi += h
	}
	for _, c := range s.DetCons {
		allOnes := true
		for _, a := range c.Coefs {
			if a != 1 {
				allOnes = false
				break
			}
		}
		if !allOnes {
			continue
		}
		if c.Lo > lo {
			lo = c.Lo
		}
		if c.Hi < hi {
			hi = c.Hi
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// probeObjectiveRange estimates s̲, s̄ (A1) by realizing the objective inner
// function for all tuples over a fixed number of validation-stream
// scenarios. For a purely deterministic objective the exact column extremes
// are used. The range depends on the SILP and the validation seed alone: it
// is memoised on the SILP and cached on the runner, unless ctx cut it short.
func (r *runner) probeObjectiveRange(ctx context.Context) (sLo, sHi float64, err error) {
	if !r.probed {
		seed := r.opts.ValidationSeed
		if r.sLo, r.sHi, r.probed = r.silp.ObjRange(seed); r.probed {
			memoHit(ctx, "probe")
		} else if r.sLo, r.sHi, err = r.objectiveRange(ctx); err != nil {
			return 0, 0, err
		} else {
			r.silp.SetObjRange(seed, r.sLo, r.sHi)
		}
		r.probed = true
	}
	return r.sLo, r.sHi, nil
}

// objectiveRange computes what probeObjectiveRange caches.
func (r *runner) objectiveRange(ctx context.Context) (sLo, sHi float64, err error) {
	silp := r.silp
	expr := silp.ObjExpr
	if len(expr.Terms) == 0 && silp.ObjKind == translate.ObjLinear {
		// COUNT-style or constant objective: per-tuple value is the constant.
		if silp.ObjCoefs == nil {
			return expr.Const, expr.Const, nil
		}
		// Fall back to coefficient extremes when the expression was not
		// retained (deterministic objectives have exact coefficients).
		sLo, sHi = extremes(silp.ObjCoefs)
		return sLo, sHi, nil
	}

	stochastic := false
	for _, t := range expr.Terms {
		if silp.Rel.IsStochastic(t.Attr) {
			stochastic = true
			break
		}
	}
	if !stochastic {
		if col, err := exprColumnDet(silp, expr); err == nil {
			sLo, sHi = extremes(col)
			return sLo, sHi, nil
		}
	}
	sLo, sHi, err = r.probeRealized(ctx, expr)
	if err != nil {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		return math.Inf(-1), math.Inf(1), nil // unusable
	}
	return sLo, sHi, nil
}

// extremes returns the math.Min and math.Max fold of vs.
func extremes(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// probeRealized realizes expr, unmasked, for every tuple over validation
// scenarios 0..probeScenarios-1 and returns the extremes. Tuples are sharded
// across Options.Parallelism workers, one row per tuple; math.Min and
// math.Max fold to the same result in any order (NaN, ±Inf and ±0
// included), so the range is bit-identical for every worker count.
func (r *runner) probeRealized(ctx context.Context, expr spaql.LinExpr) (sLo, sHi float64, err error) {
	silp := r.silp
	sp := obs.SpanFromContext(ctx).StartChild("probe")
	sp.SetInt("n", int64(silp.N))
	sp.SetInt("scenarios", probeScenarios)
	defer sp.End()
	rows, err := silp.ExprCursor("objective", r.valSrc, expr, nil, 0).Rows()
	if err != nil {
		return 0, 0, err
	}
	workers := par.Workers(r.opts.Parallelism, silp.N)
	los, his := make([]float64, workers), make([]float64, workers)
	for w := range los {
		los[w], his[w] = math.Inf(1), math.Inf(-1)
	}
	err = par.Ranges(ctx, silp.N, workers, func(shard, lo, hi int) error {
		buf := stream.GetRowBuf()
		defer stream.PutRowBuf(buf)
		scens := buf.IDs[:probeScenarios]
		for j := range scens {
			scens[j] = j
		}
		sLo, sHi := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			if (i-lo)%probeCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			row, err := rows.Row(i, scens, buf)
			if err != nil {
				return err
			}
			rowLo, rowHi := extremes(row)
			sLo, sHi = math.Min(sLo, rowLo), math.Max(sHi, rowHi)
		}
		los[shard], his[shard] = sLo, sHi
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	sLo, _ = extremes(los)
	_, sHi = extremes(his)
	return sLo, sHi, nil
}

// exprColumnDet evaluates a deterministic expression per tuple.
func exprColumnDet(s *translate.SILP, e spaql.LinExpr) ([]float64, error) {
	out := make([]float64, s.N)
	for i := range out {
		out[i] = e.Const
	}
	for _, t := range e.Terms {
		col, err := s.Rel.Det(t.Attr)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += t.Coef * col[i]
		}
	}
	return out, nil
}

// omegaBounds assembles ω̲ ≤ ω̂ ≤ ω̄ for the validation-optimal objective in
// the query's original sense. ctx carries the probe's cancellation and
// parent span.
func (r *runner) omegaBounds(ctx context.Context) (lo, hi float64, err error) {
	silp := r.silp
	if silp.ObjKind == translate.ObjProbability {
		// A probability objective is bounded in [0, 1]; a probabilistic
		// constraint over the same inner function tightens nothing useful.
		return 0, 1, nil
	}
	sLo, sHi, err := r.probeObjectiveRange(ctx)
	if err != nil {
		return 0, 0, err
	}
	lLo, lHi := r.sizeLo, r.sizeHi

	// (B1) Constraint-agnostic Table 1 bounds.
	if sLo >= 0 {
		lo = sLo * lLo
	} else {
		lo = sLo * lHi
	}
	if sHi >= 0 {
		hi = sHi * lHi
	} else {
		hi = sHi * lLo
	}

	// (B2) Constraint-specific Table 2 bounds for constraints whose inner
	// function matches the objective's.
	for _, pc := range silp.ProbCons {
		if !translate.ExprEqual(pc.Expr, silp.ObjExpr) {
			continue
		}
		if pc.Geq {
			// Pr(Σξx ≥ v) ≥ p: satisfied scenarios contribute ≥ v each.
			var partSat float64
			if pc.V >= 0 {
				partSat = pc.P * pc.V
			} else {
				partSat = pc.V
			}
			var partUnsat float64
			switch {
			case sLo >= 0:
				partUnsat = 0
			default:
				partUnsat = (1 - pc.P) * sLo * lHi
			}
			if b := partSat + partUnsat; b > lo {
				lo = b
			}
		} else {
			// Pr(Σξx ≤ v) ≥ p: satisfied scenarios contribute ≤ v each.
			var partSat float64
			if pc.V >= 0 {
				partSat = pc.V
			} else {
				partSat = pc.P * pc.V
			}
			var partUnsat float64
			switch {
			case sHi >= 0:
				partUnsat = (1 - pc.P) * sHi * lHi
			default:
				partUnsat = 0
			}
			if b := partSat + partUnsat; b < hi {
				hi = b
			}
		}
	}
	return lo, hi, nil
}

// epsUpper computes ε′ = the Propositions 2–5 bound guaranteeing
// ω(q) within (1+ε′) of ω̂, given the solution's validation objective in the
// original sense. +Inf when no applicable bound exists.
func (r *runner) epsUpper(ctx context.Context, objVal float64) (float64, error) {
	lo, hi, err := r.omegaBounds(ctx)
	if err != nil {
		return 0, err
	}
	var eps float64
	if !r.silp.Maximize {
		// Minimization: need ω̲ ≤ ω̂.
		switch {
		case lo > 0 && objVal > 0:
			eps = objVal/lo - 1 // Proposition 2
		case lo < 0 && objVal < 0:
			eps = lo/objVal - 1 // Proposition 3
		case lo == 0 && objVal == 0:
			eps = 0
		default:
			return math.Inf(1), nil
		}
	} else {
		// Maximization: need ω̂ ≤ ω̄.
		switch {
		case hi > 0 && objVal > 0:
			eps = hi/objVal - 1 // Proposition 4
		case hi < 0 && objVal < 0:
			eps = objVal/hi - 1 // Proposition 5
		case hi == 0 && objVal == 0:
			eps = 0
		default:
			return math.Inf(1), nil
		}
	}
	if eps < 0 {
		eps = 0
	}
	return eps, nil
}
