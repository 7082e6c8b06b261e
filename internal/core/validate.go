package core

import (
	"context"
	"encoding/binary"
	"math"

	"spq/internal/obs"
	"spq/internal/par"
	"spq/internal/stream"
	"spq/internal/translate"
)

// Validation is the metadata v̂ computed by the out-of-sample validation of
// §3.2: per-constraint p-surpluses, feasibility, the objective estimate, and
// the ε′ upper bound of §5.4. A runner hands out one Validation per distinct
// package and returns it again for a repeat, so its slices are read-only.
type Validation struct {
	Feasible  bool
	Surpluses []float64
	Objective float64 // original sense
	EpsUpper  float64
	// CIHalf holds the 95% normal-approximation half-widths of the
	// per-constraint satisfied-fraction estimates — the simple a-posteriori
	// feasibility analysis the paper points to (wait-and-judge, §7). A
	// solution is confidently feasible when surplus − CIHalf ≥ 0.
	CIHalf []float64
}

// ConfidentlyFeasible reports feasibility with the satisfied-fraction
// confidence interval subtracted: every surplus clears its 95% half-width.
func (v *Validation) ConfidentlyFeasible() bool {
	for k, s := range v.Surpluses {
		if s-v.CIHalf[k] < 0 {
			return false
		}
	}
	return true
}

// Validate checks a package x against the out-of-sample validation protocol
// of §3.2 under the given options, standing alone from any optimize loop. It
// is the entry point the concurrent engine and the benchmarks use; the
// algorithms' internal validation goes through the same code path, so
// parallel and sequential runs are bit-identical.
func Validate(ctx context.Context, silp *translate.SILP, x []float64, o *Options) (*Validation, error) {
	return newRunner(ctx, silp, o).validate(x)
}

// validator is the validation state a runner builds on its first validate:
// the validation-stream rows of every probabilistic constraint and of a
// probability objective, scratch reused by every later call, and the
// packages already validated. valSrc is fixed per runner, so validating the
// same package again would reproduce the same Validation bit for bit.
type validator struct {
	cons   []*stream.Rows
	obj    *stream.Rows
	scores []float64 // one running score per validation scenario
	counts []int     // satisfied scenarios per shard
	pkg    []int
	key    []byte
	done   map[string]*Validation
}

func (r *runner) newValidator() (*validator, error) {
	silp := r.silp
	v := &validator{
		cons:   make([]*stream.Rows, len(silp.ProbCons)),
		scores: make([]float64, r.opts.ValidationM),
		counts: make([]int, par.Workers(r.opts.Parallelism, r.opts.ValidationM)),
		done:   map[string]*Validation{},
	}
	for k := range silp.ProbCons {
		rows, err := silp.ConsCursor(k, r.valSrc, 0).Rows()
		if err != nil {
			return nil, err
		}
		v.cons[k] = rows
	}
	if cur := silp.ObjCursor(r.valSrc, 0); cur != nil {
		rows, err := cur.Rows()
		if err != nil {
			return nil, err
		}
		v.obj = rows
	}
	return v, nil
}

// validate checks solution x against M̂ out-of-sample scenarios from the
// validation source. Expectation constraints are feasible by construction
// (the DILP uses the precomputed means, §3.2), so only probabilistic
// constraints are streamed. Only tuples with x_i > 0 are realized, and only
// a running per-scenario score is kept, so memory is Θ(M̂) regardless of N.
//
// The M̂ scenarios are sharded into contiguous ranges across
// Options.Parallelism workers, and each shard walks its scenarios in chunks
// of stream.RowChunk, realizing every package tuple across the chunk in one
// row. Every realization is a pure function of its (attribute, tuple,
// scenario) coordinate and every scenario accumulates its score in package
// order, so the per-scenario scores — and hence the satisfied counts,
// surpluses, and objective — are bit-identical for any worker count.
func (r *runner) validate(x []float64) (*Validation, error) {
	if r.val == nil {
		v, err := r.newValidator()
		if err != nil {
			return nil, err
		}
		r.val = v
	}
	vs := r.val
	pkg, key := vs.pkg[:0], vs.key[:0]
	for i, xi := range x {
		if xi > 0 {
			pkg = append(pkg, i)
			key = binary.LittleEndian.AppendUint64(key, uint64(i))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(xi))
		}
	}
	vs.pkg, vs.key = pkg, key
	if val, ok := vs.done[string(key)]; ok {
		return val, nil
	}

	mhat := r.opts.ValidationM
	silp := r.silp
	sp := obs.SpanFromContext(r.ctx).StartChild("validate")
	sp.SetInt("m_hat", int64(mhat))
	defer sp.End()
	val := &Validation{Feasible: true, EpsUpper: math.Inf(1)}

	for k, pc := range silp.ProbCons {
		count, err := r.countSatisfied(vs.cons[k], pc.Mask, pc.Geq, pc.V, x)
		if err != nil {
			return nil, err
		}
		frac := float64(count) / float64(mhat)
		surplus := frac - pc.P
		val.Surpluses = append(val.Surpluses, surplus)
		// 95% normal-approximation half-width of the binomial fraction.
		val.CIHalf = append(val.CIHalf, 1.96*math.Sqrt(frac*(1-frac)/float64(mhat)))
		if surplus < 0 {
			val.Feasible = false
		}
	}

	switch silp.ObjKind {
	case translate.ObjLinear:
		obj := 0.0
		for _, i := range pkg {
			obj += silp.ObjCoefs[i] * x[i]
		}
		val.Objective = obj
	case translate.ObjProbability:
		count, err := r.countSatisfied(vs.obj, silp.ObjMask, silp.ObjGeq, silp.ObjV, x)
		if err != nil {
			return nil, err
		}
		val.Objective = float64(count) / float64(mhat)
	}

	eps, err := r.epsUpper(obs.ContextWithSpan(r.ctx, sp), val.Objective)
	if err != nil {
		return nil, err
	}
	val.EpsUpper = eps
	vs.done[string(key)] = val
	return val, nil
}

// countSatisfied counts the validation scenarios whose score over the
// package in r.val.pkg satisfies the constraint (≥ v when geq, else ≤ v).
func (r *runner) countSatisfied(rows *stream.Rows, mask []bool, geq bool, v float64, x []float64) (int, error) {
	vs := r.val
	clear(vs.counts)
	err := par.Ranges(r.ctx, len(vs.scores), len(vs.counts), func(shard, lo, hi int) error {
		buf := stream.GetRowBuf()
		defer stream.PutRowBuf(buf)
		sc := vs.scores[lo:hi]
		clear(sc)
		for cLo := lo; cLo < hi; cLo += stream.RowChunk {
			ids := buf.IDs[:min(stream.RowChunk, hi-cLo)]
			for k := range ids {
				ids[k] = cLo + k
			}
			chunk := sc[cLo-lo:]
			for _, i := range vs.pkg {
				// Tuples excluded by a general-form aggregate filter
				// contribute nothing (not even +0).
				if mask != nil && !mask[i] {
					continue
				}
				if err := r.ctx.Err(); err != nil {
					return err
				}
				row, err := rows.Row(i, ids, buf)
				if err != nil {
					return err
				}
				for k, w := range row {
					chunk[k] += w * x[i]
				}
			}
		}
		count := 0
		for _, s := range sc {
			if (geq && s >= v) || (!geq && s <= v) {
				count++
			}
		}
		vs.counts[shard] = count
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range vs.counts {
		total += c
	}
	return total, nil
}
