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
// the ε′ upper bound of §5.4. A SILP memoises one Validation per validation
// stream and package and hands it to every evaluation that validates that
// package again, so its slices are read-only.
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

// Validate checks a package x against the out-of-sample validation protocol
// of §3.2 under the given options, standing alone from any optimize loop. It
// is the entry point the concurrent engine and the benchmarks use; the
// algorithms' internal validation goes through the same code path, so
// parallel and sequential runs are bit-identical.
func Validate(ctx context.Context, silp *translate.SILP, x []float64, o *Options) (*Validation, error) {
	return newRunner(ctx, silp, o).validate(x)
}

// validator is the validation state a runner builds on its first validation
// the SILP holds no verdict for: the validation-stream rows of every
// probabilistic constraint and of a probability objective, and scratch reused
// by every later one.
type validator struct {
	cons   []*stream.Rows
	obj    *stream.Rows
	shards []shardTally
	pkg    []int // the tuples of the package being validated
}

// shardTally is what one validation shard counts.
type shardTally struct {
	satisfied int // scenarios satisfying the constraint being counted
	hits      int // rows the row cache served
	misses    int // rows realized into the row cache
}

func (r *runner) newValidator() (*validator, error) {
	silp := r.silp
	v := &validator{
		cons:   make([]*stream.Rows, len(silp.ProbCons)),
		shards: make([]shardTally, par.Workers(r.opts.Parallelism, chunks(r.opts.ValidationM))),
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
// constraints are streamed. Only tuples with x_i > 0 are realized.
//
// The M̂ scenarios are cut into chunks of stream.RowChunk at multiples of
// RowChunk, and the chunks are sharded into contiguous ranges across
// Options.Parallelism workers. A shard keeps one chunk of running scores:
// every package tuple is realized across the chunk in one row, served
// through the process-wide row cache (Rows.RunRow), so a row another
// validation realized before — of any package, plan or query over the same
// attribute — is copied, not realized. Memory is one chunk per worker,
// whatever M̂ and N. Every realization is a pure function of its
// (attribute, tuple, scenario) coordinate and every scenario accumulates
// its score in package order, so the per-scenario scores — and hence the
// satisfied counts, surpluses, and objective — are bit-identical for any
// worker count and any cache state. The chunks, and with them the cache's
// keys, do not depend on the worker count.
//
// A verdict is therefore a pure function of the SILP, the validation stream
// (ValidationSeed, ValidationM) and the package, and it is memoised on the
// SILP under that key: a package any evaluation of the plan has validated
// before is answered from the memo without realizing a row. A validation
// that ends in an error, cancellation included, stores nothing.
func (r *runner) validate(x []float64) (*Validation, error) {
	key := binary.LittleEndian.AppendUint64(r.valKey[:0], r.opts.ValidationSeed)
	key = binary.LittleEndian.AppendUint64(key, uint64(r.opts.ValidationM))
	for i, xi := range x {
		if xi > 0 {
			key = binary.LittleEndian.AppendUint64(key, uint64(i))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(xi))
		}
	}
	r.valKey = key
	if val, ok := r.silp.Verdict(key); ok {
		memoHit(r.ctx, "validate")
		return val.(*Validation), nil
	}
	if r.val == nil {
		v, err := r.newValidator()
		if err != nil {
			return nil, err
		}
		r.val = v
	}
	vs := r.val
	pkg := vs.pkg[:0]
	for i, xi := range x {
		if xi > 0 {
			pkg = append(pkg, i)
		}
	}
	vs.pkg = pkg

	mhat := r.opts.ValidationM
	silp := r.silp
	sp := obs.SpanFromContext(r.ctx).StartChild("validate")
	sp.SetInt("m_hat", int64(mhat))
	defer sp.End()
	clear(vs.shards)
	defer func() {
		hits, misses := 0, 0
		for _, t := range vs.shards {
			hits += t.hits
			misses += t.misses
		}
		sp.SetInt("row_hits", int64(hits))
		sp.SetInt("row_misses", int64(misses))
	}()
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
	silp.SetVerdict(key, val)
	return val, nil
}

// countSatisfied counts the validation scenarios whose score over the
// package in r.val.pkg satisfies the constraint (≥ v when geq, else ≤ v).
func (r *runner) countSatisfied(rows *stream.Rows, mask []bool, geq bool, v float64, x []float64) (int, error) {
	vs := r.val
	for k := range vs.shards {
		vs.shards[k].satisfied = 0
	}
	err := par.Ranges(r.ctx, chunks(r.opts.ValidationM), len(vs.shards), func(shard, cLo, cHi int) error {
		buf := stream.GetRowBuf()
		defer stream.PutRowBuf(buf)
		var scores [stream.RowChunk]float64
		t := &vs.shards[shard]
		lo, hi := cLo*stream.RowChunk, min(cHi*stream.RowChunk, r.opts.ValidationM)
		for first := lo; first < hi; first += stream.RowChunk {
			n := min(stream.RowChunk, hi-first)
			sc := scores[:n]
			clear(sc)
			for _, i := range vs.pkg {
				// Tuples excluded by a general-form aggregate filter
				// contribute nothing (not even +0).
				if mask != nil && !mask[i] {
					continue
				}
				if err := r.ctx.Err(); err != nil {
					return err
				}
				row, hits, misses, err := rows.RunRow(i, first, n, buf)
				if err != nil {
					return err
				}
				t.hits += hits
				t.misses += misses
				for k, w := range row {
					sc[k] += w * x[i]
				}
			}
			for _, s := range sc {
				if (geq && s >= v) || (!geq && s <= v) {
					t.satisfied++
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, t := range vs.shards {
		total += t.satisfied
	}
	return total, nil
}

// chunks is how many stream.RowChunk-scenario chunks cover m scenarios.
func chunks(m int) int { return (m + stream.RowChunk - 1) / stream.RowChunk }
