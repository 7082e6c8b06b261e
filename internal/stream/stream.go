// Package stream is the streaming scenario pipeline: composable block-wise
// iterators over tuples (TupleIter) and scenario realizations
// (ScenarioCursor) that replace materialized N×M scenario matrices with
// constant-memory folds.
//
// Two disciplines make the pipeline exact, not approximate:
//
//   - Predicate pushdown. WHERE-clause predicates evaluate against
//     deterministic attributes block-by-block *before* any scenario is
//     generated (Filter/MaskOf), so filtered tuples never cost a single
//     realization — the "filter before you realize" rule.
//
//   - Coordinate purity. Every realization is a pure function of its
//     (attr, tuple, scenario) coordinate: substream seeds are derived by
//     the same splittable-hash scheme as rng.Source.Split, keyed by the
//     base tuple index (views remap through relation's OrigIndex). A value
//     therefore does not depend on generation order, block size, or worker
//     count, which is what keeps streamed summaries bit-identical to
//     summaries folded over materialized rows.
//
// Every scenario value, streamed or materialized, comes from one kernel,
// Rows.Row. The cursor's folds replicate the materialized fold order of
// scenario.Set.SummarizeP, so streamed ≡ materialized holds exactly, for
// every worker count. SummarySearch consumes scenarios only through
// cursors; the Naïve baseline materializes its scenario rows through the
// same kernel (translate.SILP.GenerateSetsP).
package stream

import (
	"context"
	"sync"
	"sync/atomic"

	"spq/internal/par"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
)

// DefaultBlockSize is the tuple-block granularity used when a caller does
// not choose one: big enough to amortize per-block accounting, small enough
// that a block of one column is a few KiB resident.
const DefaultBlockSize = 1024

// Pipeline-wide counters, exported through Counters for the engine's
// /metrics and /stats surfaces.
var (
	blocksGenerated      atomic.Int64
	valuesGenerated      atomic.Int64
	pushdownKept         atomic.Int64
	pushdownFiltered     atomic.Int64
	summaryTuplesPatched atomic.Int64
	summaryTuplesReused  atomic.Int64
)

// CountersSnapshot reports the cumulative pipeline counters.
type CountersSnapshot struct {
	// BlocksGenerated counts tuple blocks realized by scenario cursors.
	BlocksGenerated int64
	// ValuesGenerated counts individual scenario values realized.
	ValuesGenerated int64
	// PushdownKept / PushdownFiltered count tuples that survived / were
	// eliminated by predicate pushdown before scenario generation.
	PushdownKept     int64
	PushdownFiltered int64
	// SummaryTuplesPatched / SummaryTuplesReused count summary tuples
	// recomputed by delta patching versus carried over unchanged.
	SummaryTuplesPatched int64
	SummaryTuplesReused  int64
}

// Counters returns the cumulative pipeline counters.
func Counters() CountersSnapshot {
	return CountersSnapshot{
		BlocksGenerated:      blocksGenerated.Load(),
		ValuesGenerated:      valuesGenerated.Load(),
		PushdownKept:         pushdownKept.Load(),
		PushdownFiltered:     pushdownFiltered.Load(),
		SummaryTuplesPatched: summaryTuplesPatched.Load(),
		SummaryTuplesReused:  summaryTuplesReused.Load(),
	}
}

// TupleIter iterates the deterministic attributes of a relation in fixed-size
// tuple blocks without promoting lazy columns: each Next yields the half-open
// tuple range and one reused value slice per requested attribute. It is the
// scan operator predicate pushdown runs on.
type TupleIter struct {
	rel   *relation.Relation
	attrs []string
	block int
	pos   int
	cols  [][]float64
}

// NewTupleIter creates a block iterator over the given deterministic
// attributes. block ≤ 0 uses DefaultBlockSize. Attribute existence is
// validated on the first block read (mirroring relation's errors).
func NewTupleIter(rel *relation.Relation, attrs []string, block int) *TupleIter {
	if block <= 0 {
		block = DefaultBlockSize
	}
	cols := make([][]float64, len(attrs))
	for i := range cols {
		cols[i] = make([]float64, block)
	}
	return &TupleIter{rel: rel, attrs: attrs, block: block, cols: cols}
}

// Next yields the next block: the tuple range [lo, hi) and, per attribute,
// the values of tuples lo..hi-1. The slices are reused between calls. ok is
// false when the relation is exhausted.
func (it *TupleIter) Next() (lo, hi int, cols [][]float64, ok bool, err error) {
	n := it.rel.N()
	if it.pos >= n {
		return n, n, nil, false, nil
	}
	lo = it.pos
	hi = lo + it.block
	if hi > n {
		hi = n
	}
	for i, a := range it.attrs {
		it.cols[i] = it.cols[i][:hi-lo]
		if err := it.rel.DetBlock(a, lo, it.cols[i]); err != nil {
			return lo, hi, nil, false, err
		}
	}
	it.pos = hi
	return lo, hi, it.cols, true, nil
}

// rowGetter reads the named attributes of row i of a TupleIter block. One
// getter serves a whole scan, so a predicate costs no allocation per tuple.
type rowGetter struct {
	attrs []string
	cols  [][]float64
	i     int
}

func (r *rowGetter) get(a string) float64 {
	for j, name := range r.attrs {
		if name == a {
			return r.cols[j][r.i]
		}
	}
	return 0
}

// Filter evaluates pred over the deterministic attributes block-by-block and
// returns the indices of the tuples that survive — predicate pushdown: no
// scenario value is ever generated for a filtered tuple. pred receives a
// getter over the named attributes for the current tuple.
func Filter(rel *relation.Relation, attrs []string, pred func(get func(string) float64) bool, block int) ([]int, error) {
	kept := []int{}
	it := NewTupleIter(rel, attrs, block)
	row := rowGetter{attrs: attrs}
	get := row.get
	for {
		lo, hi, cols, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		row.cols = cols
		keptBefore := len(kept)
		for t := lo; t < hi; t++ {
			row.i = t - lo
			if pred(get) {
				kept = append(kept, t)
			}
		}
		keptHere := len(kept) - keptBefore
		pushdownKept.Add(int64(keptHere))
		pushdownFiltered.Add(int64(hi - lo - keptHere))
	}
	return kept, nil
}

// MaskOf evaluates pred block-by-block like Filter but returns an inclusion
// mask instead of indices (the PaQL general-form aggregate filter shape).
func MaskOf(rel *relation.Relation, attrs []string, pred func(get func(string) float64) bool, block int) ([]bool, error) {
	mask := make([]bool, rel.N())
	it := NewTupleIter(rel, attrs, block)
	row := rowGetter{attrs: attrs}
	get := row.get
	for {
		lo, hi, cols, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		row.cols = cols
		for t := lo; t < hi; t++ {
			row.i = t - lo
			mask[t] = pred(get)
		}
	}
	return mask, nil
}

// Term is one coefficient·attribute term of a linear inner function.
type Term struct {
	Coef float64
	Attr string
}

// ScenarioCursor produces scenario realizations of one linear inner function
// Const + Σ Coef·Attr block-wise, never holding more than one tuple block of
// values. Tuples excluded by Mask realize as exactly 0.0, as a general-form
// aggregate's mask zeroes them. A cursor is immutable and safe for
// concurrent use.
type ScenarioCursor struct {
	// Name labels summaries produced by the cursor (the constraint name).
	Name  string
	Src   rng.Source
	Rel   *relation.Relation
	Const float64
	Terms []Term
	Mask  []bool
	// Block is the tuple-block granularity (≤ 0 → DefaultBlockSize).
	Block int
}

func (c *ScenarioCursor) block() int {
	if c.Block <= 0 {
		return DefaultBlockSize
	}
	return c.Block
}

// RowChunk is the most scenarios one Rows.Row call realizes; longer
// scenario lists are realized chunk by chunk.
const RowChunk = 256

// RowBuf is one goroutine's scratch for Rows.Row. IDs is room for a
// caller-built scenario list.
type RowBuf struct {
	IDs  [RowChunk]int
	vals [RowChunk]float64
	tmp  [RowChunk]float64
}

var rowBufs = sync.Pool{New: func() any { return new(RowBuf) }}

// GetRowBuf takes a RowBuf from a process-wide pool.
func GetRowBuf() *RowBuf { return rowBufs.Get().(*RowBuf) }

// PutRowBuf returns b to the pool; the caller must not use it afterwards.
func PutRowBuf(b *RowBuf) { rowBufs.Put(b) }

// Rows is a cursor with its terms resolved against its relation: the one
// realization kernel every consumer of scenario values goes through. It is
// immutable and safe for concurrent use.
type Rows struct {
	c     *ScenarioCursor
	attrs []relation.Attr
}

// Rows resolves the cursor's attributes once, for any number of Row calls.
func (c *ScenarioCursor) Rows() (*Rows, error) {
	attrs := make([]relation.Attr, len(c.Terms))
	for i, t := range c.Terms {
		a, err := c.Rel.Attr(t.Attr)
		if err != nil {
			return nil, err
		}
		attrs[i] = a
	}
	return &Rows{c: c, attrs: attrs}, nil
}

// Row realizes the inner function of one tuple across scens (at most
// RowChunk of them) into buf and returns the values, aligned with scens. A
// tuple excluded by the mask realizes as exactly 0. Each value starts from
// Const, then adds Coef·attr term by term, the operation order of a
// per-value loop over Relation.Value. Row does not touch Counters.
func (r *Rows) Row(tuple int, scens []int, buf *RowBuf) ([]float64, error) {
	out, _, _, err := r.row(tuple, scens, buf, false)
	return out, err
}

// RunRow is Row over the n consecutive scenarios first..first+n−1 (n ≤
// RowChunk), with each stochastic term's row served through relation's
// process-wide row cache (Attr.CachedValues); the values are Row's bit for
// bit. It fills buf.IDs[:n] with the run, and reports how many of the
// terms' rows the cache served and how many it realized.
func (r *Rows) RunRow(tuple, first, n int, buf *RowBuf) (row []float64, hits, misses int, err error) {
	ids := buf.IDs[:n]
	for k := range ids {
		ids[k] = first + k
	}
	return r.row(tuple, ids, buf, true)
}

func (r *Rows) row(tuple int, scens []int, buf *RowBuf, cached bool) (out []float64, hits, misses int, err error) {
	c := r.c
	out = buf.vals[:len(scens)]
	if c.Mask != nil && !c.Mask[tuple] {
		clear(out)
		return out, 0, 0, nil
	}
	for k := range out {
		out[k] = c.Const
	}
	tmp := buf.tmp[:len(scens)]
	for ti, a := range r.attrs {
		if !cached {
			err = a.Values(c.Src, tuple, scens, tmp)
		} else {
			var hit bool
			hit, err = a.CachedValues(c.Src, tuple, scens, tmp)
			switch {
			case hit:
				hits++
			case a.Stochastic():
				misses++
			}
		}
		if err != nil {
			return nil, 0, 0, err
		}
		coef := c.Terms[ti].Coef
		for k, v := range tmp {
			out[k] += coef * v
		}
	}
	return out, hits, misses, nil
}

// fold realizes one tuple across chosen and folds it in direction d, in the
// order of scenario.Set.SummarizeP: initialize from chosen[0], then compare
// chosen[1:] in order. A one-term function folds Const + Coef·v, Row's
// value, straight off the attribute's values, in one loop per direction;
// any other goes through Row.
func (r *Rows) fold(tuple int, chosen []int, d scenario.Direction, buf *RowBuf) (float64, error) {
	c := r.c
	if len(r.attrs) != 1 {
		return r.foldRows(tuple, chosen, d, buf)
	}
	if c.Mask != nil && !c.Mask[tuple] {
		return 0, nil
	}
	a, cst, coef := r.attrs[0], c.Const, c.Terms[0].Coef
	var v float64
	for lo := 0; lo < len(chosen); lo += RowChunk {
		scens := chosen[lo:min(lo+RowChunk, len(chosen))]
		vals := buf.tmp[:len(scens)]
		if err := a.Values(c.Src, tuple, scens, vals); err != nil {
			return 0, err
		}
		if lo == 0 {
			v, vals = cst+coef*vals[0], vals[1:]
		}
		switch d {
		case Min:
			for _, x := range vals {
				if w := cst + coef*x; w < v {
					v = w
				}
			}
		case Max:
			for _, x := range vals {
				if w := cst + coef*x; w > v {
					v = w
				}
			}
		}
	}
	return v, nil
}

// foldRows is fold over Row's values.
func (r *Rows) foldRows(tuple int, chosen []int, d scenario.Direction, buf *RowBuf) (float64, error) {
	var v float64
	for lo := 0; lo < len(chosen); lo += RowChunk {
		row, err := r.Row(tuple, chosen[lo:min(lo+RowChunk, len(chosen))], buf)
		if err != nil {
			return 0, err
		}
		if lo == 0 {
			v, row = row[0], row[1:]
		}
		for _, w := range row {
			if (d == Min && w < v) || (d == Max && w > v) {
				v = w
			}
		}
	}
	return v, nil
}

// Summarize folds the α-summary of the chosen absolute scenario IDs directly
// off the cursor: tuple-major, block-wise, Θ(N) output and one block of
// state, with the identical fold order to scenario.Set.SummarizeP
// (initialize from chosen[0], then compare chosen[1:] in order). accel has
// the same meaning as there. The result is bit-identical to summarizing a
// materialized set for every worker count.
func (c *ScenarioCursor) Summarize(ctx context.Context, chosen []int, dir scenario.Direction, accel []bool, workers int) (*scenario.Summary, error) {
	n := c.Rel.N()
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	out := &scenario.Summary{Attr: c.Name, Values: make([]float64, n), Chosen: append([]int(nil), chosen...), Dir: dir, Accel: cloneAccel(accel)}
	bs := c.block()
	err = par.Ranges(ctx, n, workers, func(_, shardLo, shardHi int) error {
		buf := GetRowBuf()
		defer PutRowBuf(buf)
		for lo := shardLo; lo < shardHi; lo += bs {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + bs
			if hi > shardHi {
				hi = shardHi
			}
			for i := lo; i < hi; i++ {
				d := dir
				if accel != nil && accel[i] {
					d = d.Opposite()
				}
				v, err := rows.fold(i, chosen, d, buf)
				if err != nil {
					return err
				}
				out.Values[i] = v
			}
			blocksGenerated.Add(1)
			valuesGenerated.Add(int64((hi - lo) * len(chosen)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func cloneAccel(accel []bool) []bool {
	if accel == nil {
		return nil
	}
	return append([]bool(nil), accel...)
}

// PatchSummarize re-folds only the touched tuples of a previously built
// summary against this cursor's (post-delta) relation, reusing every other
// tuple unchanged — k×|Chosen| realizations instead of N×|Chosen|. The
// cursor must realize the same inner function over the same scenario
// stream as the one that built prev; untouched tuples then realize
// identically (coordinate-pure VGs), making the patched summary
// bit-identical to a full re-summarization.
func (c *ScenarioCursor) PatchSummarize(ctx context.Context, prev *scenario.Summary, touched []int) (*scenario.Summary, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	out := &scenario.Summary{
		Attr:   prev.Attr,
		Values: append([]float64(nil), prev.Values...),
		Chosen: prev.Chosen,
		Dir:    prev.Dir,
		Accel:  prev.Accel,
	}
	buf := GetRowBuf()
	defer PutRowBuf(buf)
	for _, i := range touched {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := prev.Dir
		if prev.Accel != nil && prev.Accel[i] {
			d = d.Opposite()
		}
		v, err := rows.fold(i, prev.Chosen, d, buf)
		if err != nil {
			return nil, err
		}
		out.Values[i] = v
	}
	valuesGenerated.Add(int64(len(touched) * len(prev.Chosen)))
	summaryTuplesPatched.Add(int64(len(touched)))
	summaryTuplesReused.Add(int64(len(prev.Values) - len(touched)))
	return out, nil
}

// Local aliases keep the fold conditions textually identical to the
// materialized implementation.
const (
	Min = scenario.Min
	Max = scenario.Max
)

// Scores computes the scenario scores Σ_i s_ij·x_i for the given absolute
// scenario IDs (aligned with ids), realizing only the tuples with x_i ≠ 0 —
// the package is typically much smaller than the relation (§5.5). Work is
// tuple-major within each chunk of ids: every score starts from 0 and adds
// v·x_i in package order, so the scores, and with them the order
// scenario.Pick gives, do not depend on the chunking or the worker count.
func (c *ScenarioCursor) Scores(ctx context.Context, ids []int, x []float64, workers int) ([]float64, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(ids))
	var pkg []int
	for i, xi := range x {
		if xi != 0 {
			pkg = append(pkg, i)
		}
	}
	err = par.Ranges(ctx, len(ids), workers, func(_, lo, hi int) error {
		buf := GetRowBuf()
		defer PutRowBuf(buf)
		for cLo := lo; cLo < hi; cLo += RowChunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			cHi := min(cLo+RowChunk, hi)
			sc := scores[cLo:cHi]
			for _, i := range pkg {
				row, err := rows.Row(i, ids[cLo:cHi], buf)
				if err != nil {
					return err
				}
				for k, v := range row {
					sc[k] += v * x[i]
				}
			}
		}
		if hi > lo {
			valuesGenerated.Add(int64((hi - lo) * len(pkg)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}
