// Package relation implements the Monte Carlo probabilistic data model of
// MCDB (Jampani et al.) that the paper builds on (§2.2): a relation with
// deterministic columns plus stochastic attributes whose values are produced
// by VG (variable generation) functions. A scenario is a deterministic
// realization of the whole relation, reproducible from a base random seed;
// the deterministic tuple key is the tuple's index, which is stable across
// scenarios.
package relation

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spq/internal/dist"
	"spq/internal/par"
	"spq/internal/rng"
)

// VGFunc is a variable generation function for one stochastic attribute.
// Value must be a pure function of (src, tuple, scenario): the same
// coordinates always produce the same realization, regardless of the order
// in which other coordinates are evaluated. This property is what allows
// tuple-wise and scenario-wise summarization (§5.5) to observe identical
// scenario sets.
//
// A VG must not change after it is added to a relation: the process-wide
// row cache (rowcache.go) keeps its realized rows for as long as the
// attribute exists. To change an attribute's distribution, replace its VG
// with a delta's SetVG, which gives the attribute a new identity.
type VGFunc interface {
	// Value returns the realization of the attribute for the given tuple in
	// the given scenario.
	Value(src rng.Source, tuple, scenario int) float64
	// ExactMean returns the closed-form mean for the tuple's variable, or
	// NaN when no closed form is available (the mean is then estimated by
	// scenario averaging, as in the paper's precomputation phase §3.2).
	ExactMean(tuple int) float64
}

// streams recycles the substream a realized value is drawn from. The stream
// escapes through the dist.Dist / Eval call, so a fresh one would be a heap
// object per value; Reseed overwrites every field, so a recycled one yields
// the same value bit for bit. Dists and Evals must not retain the stream.
var streams = sync.Pool{New: func() any { return new(rng.Stream) }}

// IndependentVG realizes each tuple's variable independently from its own
// distribution. Dists is indexed by tuple; a single-element slice is
// broadcast to all tuples.
type IndependentVG struct {
	// AttrID namespaces this attribute's substreams; it must differ between
	// attributes of one relation.
	AttrID uint64
	Dists  []dist.Dist
}

func (vg *IndependentVG) distFor(tuple int) dist.Dist {
	if len(vg.Dists) == 1 {
		return vg.Dists[0]
	}
	return vg.Dists[tuple]
}

// Value implements VGFunc.
func (vg *IndependentVG) Value(src rng.Source, tuple, scenario int) float64 {
	s := streams.Get().(*rng.Stream)
	s.Reseed(src.SeedAt(vg.AttrID, uint64(tuple), uint64(scenario)))
	v := vg.distFor(tuple).Sample(s)
	streams.Put(s)
	return v
}

func (vg *IndependentVG) values(src rng.Source, tuple int, scens []int, out []float64) {
	d := vg.distFor(tuple)
	seeds := src.Row(vg.AttrID, uint64(tuple))
	s := streams.Get().(*rng.Stream)
	for k, j := range scens {
		s.Reseed(seeds.At(uint64(j)))
		out[k] = d.Sample(s)
	}
	streams.Put(s)
}

// ExactMean implements VGFunc.
func (vg *IndependentVG) ExactMean(tuple int) float64 { return vg.distFor(tuple).Mean() }

// GroupedVG realizes variables that are correlated within groups: all tuples
// with the same Group share one substream per scenario, so their values are
// derived from a common random experiment (e.g. one price path per stock,
// Figure 1 of the paper). Eval receives the shared stream, freshly seeded
// for (group, scenario), and the tuple index, and must read the tuple's
// value off the group's common experiment; since every call starts from the
// same seed, it may generate only the prefix of the experiment the tuple
// needs. The stream is valid only for the duration of the call.
type GroupedVG struct {
	AttrID uint64
	Group  []int // group id per tuple
	Eval   func(s *rng.Stream, tuple int) float64
	Means  []float64 // optional exact means per tuple (nil → NaN)
}

// Value implements VGFunc.
func (vg *GroupedVG) Value(src rng.Source, tuple, scenario int) float64 {
	s := streams.Get().(*rng.Stream)
	s.Reseed(src.SeedAt(vg.AttrID, uint64(vg.Group[tuple]), uint64(scenario)))
	v := vg.Eval(s, tuple)
	streams.Put(s)
	return v
}

func (vg *GroupedVG) values(src rng.Source, tuple int, scens []int, out []float64) {
	seeds := src.Row(vg.AttrID, uint64(vg.Group[tuple]))
	s := streams.Get().(*rng.Stream)
	for k, j := range scens {
		s.Reseed(seeds.At(uint64(j)))
		out[k] = vg.Eval(s, tuple)
	}
	streams.Put(s)
}

// ExactMean implements VGFunc.
func (vg *GroupedVG) ExactMean(tuple int) float64 {
	if vg.Means == nil {
		return math.NaN()
	}
	return vg.Means[tuple]
}

// remappedVG exposes a subset view of another VG function: tuple i of the
// view is tuple Orig[i] of the base relation, preserving substream identity
// (and hence correlation structure) under selection.
type remappedVG struct {
	inner VGFunc
	orig  []int
}

func (vg *remappedVG) Value(src rng.Source, tuple, scenario int) float64 {
	return vg.inner.Value(src, vg.orig[tuple], scenario)
}

func (vg *remappedVG) ExactMean(tuple int) float64 { return vg.inner.ExactMean(vg.orig[tuple]) }

func (vg *remappedVG) values(src rng.Source, tuple int, scens []int, out []float64) {
	valuesOf(vg.inner, src, vg.orig[tuple], scens, out)
}

// rowVG is implemented by this package's VG functions: values sets out[k] to
// Value(src, tuple, scens[k]) bit for bit, with the per-tuple work (the
// distribution or group, the seed prefix, the recycled stream) hoisted out
// of the scenario loop.
type rowVG interface {
	values(src rng.Source, tuple int, scens []int, out []float64)
}

// valuesOf realizes one tuple of vg across scens: through the row path when
// vg has one, one Value call per scenario for any other VGFunc.
func valuesOf(vg VGFunc, src rng.Source, tuple int, scens []int, out []float64) {
	if rv, ok := vg.(rowVG); ok {
		rv.values(src, tuple, scens, out)
		return
	}
	for k, j := range scens {
		out[k] = vg.Value(src, tuple, j)
	}
}

// stochAttr is a stochastic attribute of a relation. id names its innermost
// VG for the row cache: AddStoch and SetVG draw a fresh one, and every
// derived relation that keeps the innermost VG (views, snapshots, deletes
// and appends) keeps the id. On a base relation, span is the size of the
// innermost VG's index space once deletes have remapped it, the index the
// next appended tuple draws; 0 while vg reads the tuple indices directly.
type stochAttr struct {
	name string
	vg   VGFunc
	id   uint64
	span int
}

// stochIDs numbers stochastic attributes process-wide.
var stochIDs atomic.Uint64

func newStochID() uint64 { return stochIDs.Add(1) }

// Relation is a Monte Carlo relation. Deterministic columns are either
// resident ([]float64) or lazy (backed by a ColumnSource, e.g. an mmap'd
// column file); stochastic attributes are always VG-generated on demand.
type Relation struct {
	name string
	n    int

	detNames []string
	detCols  [][]float64
	// detSrcs[i] backs a lazy deterministic column when detCols[i] is nil;
	// lazyMu guards promotion (materializing a lazy column into detCols).
	detSrcs []ColumnSource
	lazyMu  sync.Mutex
	detIdx  map[string]int

	stochs   []stochAttr
	stochIdx map[string]int

	// means caches E(t_i.A) estimates per stochastic attribute (§3.2
	// precomputation); populated by ComputeMeans or exact VG means.
	means map[string][]float64

	// origIdx maps view tuples to base-relation tuples; nil for base
	// relations (identity).
	origIdx []int

	// version counts mutations; atomic because ApplyDelta runs concurrently
	// with readers. The engine's plan and result caches key on it.
	version atomic.Uint64

	// Mutation spine (delta.go). mutMu serializes mutators and snapshot
	// creation; snap memoizes the immutable snapshot of the current
	// version; base links a snapshot back to the mutable relation it
	// shadows (nil otherwise); view marks relations produced by
	// Select/SelectIndices, which reject ApplyDelta. colEpochs records the
	// version at which each column last changed through a delta,
	// memberEpoch the version of the last membership (count/order) change,
	// and wholesaleEpoch the version of the last schema or full-column
	// mutation (nothing older can be delta-maintained). deltaLog keeps a
	// bounded history of change sets for Changes; nextOrig is the
	// original-index high-water mark once deletes/appends start shifting
	// the index space.
	mutMu          sync.Mutex
	snap           *Relation
	base           *Relation
	view           bool
	colEpochs      map[string]uint64
	memberEpoch    uint64
	wholesaleEpoch uint64
	deltaLog       []*ChangeSet
	nextOrig       int

	// parts caches Partitionings by canonical spec, each tagged with the
	// version it was built against (see partition.go).
	partMu sync.Mutex
	parts  map[string]*Partitioning
}

// Version returns a counter incremented by every mutation of the relation.
// Views and snapshots pin the version of the relation they were derived
// from.
func (r *Relation) Version() uint64 { return r.version.Load() }

// bumpWholesale records a whole-relation mutation (schema change or a full
// means recomputation): every delta-scoped consumer must rebuild from
// scratch, so the change-set log restarts here.
func (r *Relation) bumpWholesale() {
	v := r.version.Add(1)
	r.wholesaleEpoch = v
	r.deltaLog = nil
	r.snap = nil
}

// New creates a relation with n tuples and no columns.
func New(name string, n int) *Relation {
	return &Relation{
		name:     name,
		n:        n,
		detIdx:   map[string]int{},
		stochIdx: map[string]int{},
		means:    map[string][]float64{},
	}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// N returns the number of tuples.
func (r *Relation) N() int { return r.n }

// AddDet adds a deterministic column. The column length must equal N.
func (r *Relation) AddDet(name string, values []float64) error {
	if len(values) != r.n {
		return fmt.Errorf("relation: column %q has %d values, want %d", name, len(values), r.n)
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if r.hasAttr(name) {
		return fmt.Errorf("relation: duplicate attribute %q", name)
	}
	r.detIdx[name] = len(r.detCols)
	r.detNames = append(r.detNames, name)
	r.lazyMu.Lock()
	r.detCols = append(r.detCols, values)
	r.lazyMu.Unlock()
	r.detSrcs = append(r.detSrcs, nil)
	r.bumpWholesale()
	return nil
}

// AddDetSource adds a lazy deterministic column backed by a ColumnSource
// (e.g. an mmap'd column file or a cached file reader). The source length
// must equal N. Values are read block-wise on demand; Det promotes the whole
// column into memory only when a caller needs the resident slice.
func (r *Relation) AddDetSource(name string, src ColumnSource) error {
	if src.Len() != r.n {
		return fmt.Errorf("relation: column %q source has %d values, want %d", name, src.Len(), r.n)
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if r.hasAttr(name) {
		return fmt.Errorf("relation: duplicate attribute %q", name)
	}
	r.detIdx[name] = len(r.detCols)
	r.detNames = append(r.detNames, name)
	r.lazyMu.Lock()
	r.detCols = append(r.detCols, nil)
	r.lazyMu.Unlock()
	r.detSrcs = append(r.detSrcs, src)
	r.bumpWholesale()
	return nil
}

// AddStoch adds a stochastic attribute backed by a VG function.
func (r *Relation) AddStoch(name string, vg VGFunc) error {
	return r.addStoch(stochAttr{name: name, vg: vg, id: newStochID()})
}

func (r *Relation) addStoch(sa stochAttr) error {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if r.hasAttr(sa.name) {
		return fmt.Errorf("relation: duplicate attribute %q", sa.name)
	}
	r.stochIdx[sa.name] = len(r.stochs)
	r.stochs = append(r.stochs, sa)
	r.bumpWholesale()
	return nil
}

func (r *Relation) hasAttr(name string) bool {
	_, d := r.detIdx[name]
	_, s := r.stochIdx[name]
	return d || s
}

// HasAttr reports whether the relation has an attribute with this name.
func (r *Relation) HasAttr(name string) bool { return r.hasAttr(name) }

// IsStochastic reports whether name is a stochastic attribute.
func (r *Relation) IsStochastic(name string) bool {
	_, ok := r.stochIdx[name]
	return ok
}

// DetNames returns the deterministic column names in insertion order.
func (r *Relation) DetNames() []string { return append([]string(nil), r.detNames...) }

// StochNames returns the stochastic attribute names in insertion order.
func (r *Relation) StochNames() []string {
	out := make([]string, len(r.stochs))
	for i, s := range r.stochs {
		out[i] = s.name
	}
	return out
}

// Det returns the deterministic column as a resident slice, or an error if
// absent. Lazy columns are promoted (fully materialized) on first call and
// the promotion is memoized; block-wise consumers should prefer DetBlock,
// which never promotes.
func (r *Relation) Det(name string) ([]float64, error) {
	i, ok := r.detIdx[name]
	if !ok {
		return nil, fmt.Errorf("relation: no deterministic column %q", name)
	}
	if r.detCols[i] == nil && r.detSrcs[i] != nil {
		r.lazyMu.Lock()
		defer r.lazyMu.Unlock()
		if r.detCols[i] == nil {
			col := make([]float64, r.n)
			if err := r.detSrcs[i].ReadAt(col, 0); err != nil {
				return nil, fmt.Errorf("relation: promoting column %q: %w", name, err)
			}
			r.detCols[i] = col
		}
	}
	return r.detCols[i], nil
}

// IsLazy reports whether the deterministic column is backed by a
// ColumnSource and has not been promoted to a resident slice.
func (r *Relation) IsLazy(name string) bool {
	i, ok := r.detIdx[name]
	if !ok {
		return false
	}
	r.lazyMu.Lock()
	defer r.lazyMu.Unlock()
	return r.detCols[i] == nil && r.detSrcs[i] != nil
}

// DetBlock fills dst with values [off, off+len(dst)) of a deterministic
// column without promoting lazy columns; it is the block-wise access path
// the streaming pipeline scans with.
func (r *Relation) DetBlock(name string, off int, dst []float64) error {
	i, ok := r.detIdx[name]
	if !ok {
		return fmt.Errorf("relation: no deterministic column %q", name)
	}
	if off < 0 || off+len(dst) > r.n {
		return fmt.Errorf("relation: column %q block [%d,%d) out of range [0,%d)", name, off, off+len(dst), r.n)
	}
	if col := r.detCols[i]; col != nil {
		copy(dst, col[off:off+len(dst)])
		return nil
	}
	return r.detSrcs[i].ReadAt(dst, off)
}

// DetValue returns one value of a deterministic column without promoting a
// lazy column (single-element DetBlock).
func (r *Relation) DetValue(name string, tuple int) (float64, error) {
	i, ok := r.detIdx[name]
	if !ok {
		return 0, fmt.Errorf("relation: no deterministic column %q", name)
	}
	if col := r.detCols[i]; col != nil {
		return col[tuple], nil
	}
	var buf [1]float64
	if err := r.detSrcs[i].ReadAt(buf[:], tuple); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// VG returns the VG function of a stochastic attribute.
func (r *Relation) VG(name string) (VGFunc, error) {
	i, ok := r.stochIdx[name]
	if !ok {
		return nil, fmt.Errorf("relation: no stochastic attribute %q", name)
	}
	return r.stochs[i].vg, nil
}

// Value realizes attribute attr for (tuple, scenario) under source src.
// Deterministic columns ignore the scenario.
func (r *Relation) Value(src rng.Source, attr string, tuple, scenario int) (float64, error) {
	if i, ok := r.detIdx[attr]; ok {
		if col := r.detCols[i]; col != nil {
			return col[tuple], nil
		}
		var buf [1]float64
		if err := r.detSrcs[i].ReadAt(buf[:], tuple); err != nil {
			return 0, err
		}
		return buf[0], nil
	}
	if i, ok := r.stochIdx[attr]; ok {
		return r.stochs[i].vg.Value(src, tuple, scenario), nil
	}
	return 0, fmt.Errorf("relation: no attribute %q", attr)
}

// Attr is an attribute resolved by name once, so realizing through it pays
// none of Value's per-value name lookups. It reads the relation it was
// resolved on exactly as Value does.
type Attr struct {
	rel *Relation
	vg  VGFunc // nil for a deterministic column
	id  uint64 // the stochastic attribute's id
	det int    // the deterministic column's index
}

// Attr resolves an attribute for row-wise realization.
func (r *Relation) Attr(name string) (Attr, error) {
	if i, ok := r.detIdx[name]; ok {
		return Attr{rel: r, det: i}, nil
	}
	if i, ok := r.stochIdx[name]; ok {
		return Attr{rel: r, vg: r.stochs[i].vg, id: r.stochs[i].id}, nil
	}
	return Attr{}, fmt.Errorf("relation: no attribute %q", name)
}

// Values realizes the attribute for one tuple across a list of scenarios:
// out[k] is Value(src, attr, tuple, scens[k]) bit for bit. A deterministic
// column reads its one value, from a lazy column without promoting it, and
// repeats it.
func (a Attr) Values(src rng.Source, tuple int, scens []int, out []float64) error {
	out = out[:len(scens)]
	if a.vg != nil {
		valuesOf(a.vg, src, tuple, scens, out)
		return nil
	}
	if len(out) == 0 {
		return nil
	}
	if col := a.rel.detCols[a.det]; col != nil {
		out[0] = col[tuple]
	} else if err := a.rel.detSrcs[a.det].ReadAt(out[:1], tuple); err != nil {
		return err
	}
	for k := 1; k < len(out); k++ {
		out[k] = out[0]
	}
	return nil
}

// rowChunk is how many scenarios ComputeMeans realizes a tuple over per
// row-kernel call, and the longest row the row cache holds
// (stream.RowChunk, which this package cannot import).
const rowChunk = 256

// ComputeMeans populates the E(t_i.A) cache for every stochastic attribute,
// mirroring the paper's precomputation phase (§3.2): attributes whose VG
// function has a closed-form mean use it; others are estimated by averaging
// sampleM scenarios drawn from src (which should be the validation source).
// The estimate realizes each tuple through the row kernel, tuples sharded
// over GOMAXPROCS workers. Each tuple's sum starts at 0 and adds its values
// in scenario order, exactly as a per-value loop over scenarios would, so
// the means are bit-identical at every worker count.
func (r *Relation) ComputeMeans(src rng.Source, sampleM int) {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	for _, sa := range r.stochs {
		col := make([]float64, r.n)
		exact := true
		for t := 0; t < r.n; t++ {
			m := sa.vg.ExactMean(t)
			if math.IsNaN(m) {
				exact = false
				break
			}
			col[t] = m
		}
		if !exact {
			// No context and no failing worker: Ranges returns nil.
			_ = par.Ranges(nil, r.n, par.Workers(-1, r.n), func(_, lo, hi int) error {
				var ids [rowChunk]int
				var buf [rowChunk]float64
				for t := lo; t < hi; t++ {
					sum := 0.0
					for j0 := 0; j0 < sampleM; j0 += rowChunk {
						scens := ids[:min(rowChunk, sampleM-j0)]
						for k := range scens {
							scens[k] = j0 + k
						}
						valuesOf(sa.vg, src, t, scens, buf[:len(scens)])
						for _, v := range buf[:len(scens)] {
							sum += v
						}
					}
					col[t] = sum
				}
				return nil
			})
			inv := 1 / float64(sampleM)
			for t := range col {
				col[t] *= inv
			}
		}
		r.means[sa.name] = col
	}
	r.bumpWholesale()
}

// SetMeans overrides the cached mean column for a stochastic attribute.
func (r *Relation) SetMeans(attr string, means []float64) error {
	if !r.IsStochastic(attr) {
		return fmt.Errorf("relation: %q is not stochastic", attr)
	}
	if len(means) != r.n {
		return errors.New("relation: means length mismatch")
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	r.means[attr] = means
	r.bumpWholesale()
	return nil
}

// Means returns the mean column for an attribute: the deterministic values
// for deterministic columns, the cached estimate for stochastic attributes.
// ComputeMeans (or SetMeans) must have run for stochastic attributes.
func (r *Relation) Means(attr string) ([]float64, error) {
	if _, ok := r.detIdx[attr]; ok {
		return r.Det(attr) // promotes a lazy column
	}
	if _, ok := r.stochIdx[attr]; ok {
		if m, ok := r.means[attr]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("relation: means not computed for %q", attr)
	}
	return nil, fmt.Errorf("relation: no attribute %q", attr)
}

// Select returns a view containing only the tuples for which keep returns
// true (the sPaQL WHERE clause). The view preserves each kept tuple's
// substream identity, so its stochastic behaviour (including cross-tuple
// correlation) is unchanged. OrigIndex reports the mapping. It fails as
// SelectIndices does.
func (r *Relation) Select(keep func(tuple int) bool) (*Relation, error) {
	var orig []int
	for t := 0; t < r.n; t++ {
		if keep(t) {
			orig = append(orig, t)
		}
	}
	return r.SelectIndices(orig)
}

// SelectIndices returns a view containing exactly the tuples at the given
// (ascending) indices. It is the gather step predicate pushdown lands on:
// the caller scans deterministic columns block-wise, decides which tuples
// survive, and the view costs O(len(orig)) — not O(N) — in resident memory
// even when the parent's columns are lazy, because only the kept tuples'
// deterministic values are gathered. A lazy column whose source fails to
// read (truncated or unreadable data) fails the gather with its error.
func (r *Relation) SelectIndices(orig []int) (*Relation, error) {
	out := New(r.name, len(orig))
	out.view = true
	// Construction below mutates the view; snapshot the parent's version
	// afterwards so Version() reflects the data the view was derived from.
	defer func() { out.version.Store(r.Version()) }()
	// Compose with any existing view mapping so OrigIndex is always
	// relative to the original base relation, even for views of views.
	out.origIdx = make([]int, len(orig))
	for k, t := range orig {
		out.origIdx[k] = r.OrigIndex(t)
	}
	for i, name := range r.detNames {
		col := make([]float64, len(orig))
		if resident := r.detCols[i]; resident != nil {
			for k, t := range orig {
				col[k] = resident[t]
			}
		} else {
			src := r.detSrcs[i]
			var buf [1]float64
			for k, t := range orig {
				// Gather through the source without promoting the
				// parent column.
				if err := src.ReadAt(buf[:], t); err != nil {
					return nil, fmt.Errorf("relation: gathering column %q: %w", name, err)
				}
				col[k] = buf[0]
			}
		}
		_ = out.AddDet(name, col)
	}
	for _, sa := range r.stochs {
		_ = out.addStoch(stochAttr{name: sa.name, vg: &remappedVG{inner: sa.vg, orig: append([]int(nil), orig...)}, id: sa.id})
	}
	for attr, m := range r.means {
		col := make([]float64, len(orig))
		for k, t := range orig {
			col[k] = m[t]
		}
		out.means[attr] = col
	}
	return out, nil
}

// OrigIndex returns the base-relation tuple index for a view tuple; for a
// base relation it is the identity.
func (r *Relation) OrigIndex(tuple int) int {
	if r.origIdx == nil {
		return tuple
	}
	return r.origIdx[tuple]
}
