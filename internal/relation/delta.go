// Delta-scoped mutation of relations. A Delta describes a batch of tuple
// upserts/deletes, deterministic-column patches, and VG-parameter updates;
// ApplyDelta installs it copy-on-write so that snapshots taken before the
// delta keep reading the pre-delta state (columns are replaced, never
// written in place). Every apply produces a ChangeSet — the first-class
// invalidation currency of the engine: downstream caches ask
// Changes(sinceVersion) and retain, patch, or rebuild by footprint instead
// of discarding wholesale on any version bump.
package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Delta is a batch mutation of a base relation. Index spaces: Set and SetVG
// address tuples in the relation's current (pre-delete) index space, Delete
// likewise; Append rows land after deletes, at the end of the compacted
// relation. Within one ApplyDelta the order of application is
// patches → VG updates → deletes → appends.
type Delta struct {
	// Set patches deterministic columns: Set[col][tuple] = new value.
	Set map[string]map[int]float64
	// SetVG replaces the VG function (and cached means) of stochastic
	// attributes — e.g. re-fitted distribution parameters. The whole
	// attribute column is considered changed.
	SetVG map[string]VGUpdate
	// Delete removes the listed tuple indices. Surviving tuples are
	// compacted but keep their substream identity (OrigIndex keeps mapping
	// to the original base index), so scenario realizations of survivors
	// are unchanged.
	Delete []int
	// Append adds new tuples at the end. Each row must supply a value for
	// every deterministic column; stochastic attributes must be
	// broadcastable (a single-distribution IndependentVG) so the new
	// tuples draw from fresh substreams of the same distribution.
	Append []map[string]float64
}

// VGUpdate carries a replacement VG function and its per-tuple mean column
// (the means cache cannot be re-estimated without a sampling budget, so the
// caller supplies it; nil keeps the previous means, which is almost always
// wrong unless the update preserves them).
type VGUpdate struct {
	VG    VGFunc
	Means []float64
}

// ChangeSet records what one or more deltas changed between two versions.
// It is the unit of delta-scoped invalidation: a consumer holding state
// built at version From decides by footprint whether to retain, patch, or
// rebuild for version To.
type ChangeSet struct {
	// From and To bracket the versions: the set covers (From, To].
	From, To uint64
	// Cols lists deterministic columns with patched cells (sorted).
	Cols []string
	// Attrs lists stochastic attributes whose VG was replaced (sorted);
	// every tuple of such an attribute must be treated as changed.
	Attrs []string
	// Tuples lists the tuple indices with patched cells (sorted, in the
	// pre-delete index space of version From). Meaningless once Deleted.
	Tuples []int
	// Appended counts tuples added at the end.
	Appended int
	// Deleted reports whether any tuples were removed (the index space
	// shifted; per-tuple patching is no longer sound).
	Deleted bool
	// Wholesale reports a schema or full-relation mutation: nothing can be
	// retained.
	Wholesale bool
}

// MembershipChanged reports whether the tuple set (count or order) changed.
func (cs *ChangeSet) MembershipChanged() bool {
	return cs.Appended > 0 || cs.Deleted || cs.Wholesale
}

// Touches reports whether the change set's column footprint intersects the
// given attribute names.
func (cs *ChangeSet) Touches(attrs []string) bool {
	for _, a := range attrs {
		for _, c := range cs.Cols {
			if a == c {
				return true
			}
		}
		for _, c := range cs.Attrs {
			if a == c {
				return true
			}
		}
	}
	return false
}

// Empty reports a change set with no recorded changes.
func (cs *ChangeSet) Empty() bool {
	return !cs.Wholesale && !cs.Deleted && cs.Appended == 0 &&
		len(cs.Cols) == 0 && len(cs.Attrs) == 0
}

// Package-level delta counters, exported through DeltaStats for the
// engine's /stats and /metrics surfaces.
var (
	deltasApplied  atomic.Int64
	deltaCells     atomic.Int64
	deltaAppends   atomic.Int64
	deltaDeletes   atomic.Int64
	partsRetained  atomic.Int64
	partsPatched   atomic.Int64
	partsRebuilt   atomic.Int64
	shardsRebuilt  atomic.Int64
	shardsRetained atomic.Int64
)

// DeltaStatsSnapshot reports the cumulative delta-maintenance counters:
// how many deltas were applied and, on the consumption side, how much
// partitioning work was retained/patched versus rebuilt.
type DeltaStatsSnapshot struct {
	DeltasApplied  int64
	CellsPatched   int64
	TuplesAppended int64
	TuplesDeleted  int64
	// PartitionsRetained counts cached partitionings rebased to a new
	// version untouched (delta footprint disjoint from the features);
	// PartitionsPatched counts those with only affected shards
	// re-clustered; PartitionsRebuilt counts every k-means build of a
	// whole partitioning.
	PartitionsRetained int64
	PartitionsPatched  int64
	PartitionsRebuilt  int64
	// ShardsRebuilt/ShardsRetained split patched partitionings by shard.
	ShardsRebuilt  int64
	ShardsRetained int64
	// StaleViews is always 0: no read path rejects a stale view. It stays
	// because the benchmark harness reads it.
	StaleViews int64
}

// DeltaStats returns the cumulative delta counters.
func DeltaStats() DeltaStatsSnapshot {
	return DeltaStatsSnapshot{
		DeltasApplied:      deltasApplied.Load(),
		CellsPatched:       deltaCells.Load(),
		TuplesAppended:     deltaAppends.Load(),
		TuplesDeleted:      deltaDeletes.Load(),
		PartitionsRetained: partsRetained.Load(),
		PartitionsPatched:  partsPatched.Load(),
		PartitionsRebuilt:  partsRebuilt.Load(),
		ShardsRebuilt:      shardsRebuilt.Load(),
		ShardsRetained:     shardsRetained.Load(),
	}
}

// deltaLogCap bounds the per-relation change-set history; consumers whose
// base version fell off the log rebuild wholesale (Changes returns false).
const deltaLogCap = 64

// Snapshot returns an immutable view of the relation at its current
// version. Mutators replace column containers copy-on-write rather than
// writing in place, so the snapshot is O(columns) to take and keeps reading
// the pre-delta state forever — including VG substream identity, so
// scenario realizations against a snapshot are bit-reproducible. Snapshots
// are memoized: every caller between two mutations shares one snapshot
// object (and thus one partitioning cache, which Partition delegates to
// the base relation). Snapshots of snapshots, and of Select views (already
// effectively immutable), return the receiver.
func (r *Relation) Snapshot() *Relation {
	if r.base != nil || r.view {
		return r
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if r.snap != nil {
		return r.snap
	}
	s := &Relation{
		name:     r.name,
		n:        r.n,
		detNames: append([]string(nil), r.detNames...),
		detSrcs:  append([]ColumnSource(nil), r.detSrcs...),
		detIdx:   cloneMap(r.detIdx),
		stochs:   append([]stochAttr(nil), r.stochs...),
		stochIdx: cloneMap(r.stochIdx),
		means:    cloneMap(r.means),
		origIdx:  r.origIdx,
		base:     r,
	}
	// detCols is written by lazy-column promotion (Det) under lazyMu;
	// copy the outer slice under the same lock so a concurrent promotion
	// cannot race the copy. The snapshot re-promotes independently.
	r.lazyMu.Lock()
	s.detCols = append([][]float64(nil), r.detCols...)
	r.lazyMu.Unlock()
	s.version.Store(r.version.Load())
	r.snap = s
	return s
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Base returns the mutable relation a snapshot shadows, or the receiver for
// base relations and Select views.
func (r *Relation) Base() *Relation {
	if r.base != nil {
		return r.base
	}
	return r
}

// Changes returns the merged change set covering (since, current]. The
// second result is false when the history is unavailable — the version
// predates a wholesale mutation, or the bounded delta log was trimmed —
// in which case the caller must rebuild. Called on a snapshot it consults
// the base relation's log.
func (r *Relation) Changes(since uint64) (*ChangeSet, bool) {
	host := r.Base()
	host.mutMu.Lock()
	defer host.mutMu.Unlock()
	cur := host.version.Load()
	if since > cur {
		return nil, false
	}
	if since == cur {
		return &ChangeSet{From: since, To: cur}, true
	}
	if since < host.wholesaleEpoch {
		return nil, false
	}
	merged := &ChangeSet{From: since, To: cur}
	covered := since
	cols := map[string]bool{}
	attrs := map[string]bool{}
	tuples := map[int]bool{}
	for _, e := range host.deltaLog {
		if e.To <= since {
			continue
		}
		if e.From != covered {
			return nil, false // a gap: the log was trimmed past `since`
		}
		for _, c := range e.Cols {
			cols[c] = true
		}
		for _, a := range e.Attrs {
			attrs[a] = true
		}
		if !merged.Deleted {
			// Tuple indices are only meaningful while the index space is
			// stable; after a delete the per-tuple list is moot (Deleted
			// forces consumers to rebuild anyway).
			for _, t := range e.Tuples {
				tuples[t] = true
			}
		}
		merged.Appended += e.Appended
		merged.Deleted = merged.Deleted || e.Deleted
		covered = e.To
	}
	if covered != cur {
		return nil, false
	}
	merged.Cols = sortedKeys(cols)
	merged.Attrs = sortedKeys(attrs)
	merged.Tuples = sortedInts(tuples)
	return merged, true
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedInts(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ApplyDelta validates and installs a delta, returning the resulting
// ChangeSet. All mutation is copy-on-write: previously taken snapshots and
// Select views keep reading the pre-delta data. ApplyDelta is safe to call
// concurrently with readers and with itself; it must be called on a base
// relation (not a snapshot or view).
func (r *Relation) ApplyDelta(d *Delta) (*ChangeSet, error) {
	if r.base != nil || r.view {
		return nil, errors.New("relation: ApplyDelta on an immutable snapshot or view")
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()

	// --- validate everything before touching any state ---
	touched := map[int]bool{}
	cells := 0
	for col, patch := range d.Set {
		i, ok := r.detIdx[col]
		if !ok {
			return nil, fmt.Errorf("relation: delta patches unknown deterministic column %q", col)
		}
		_ = i
		for t := range patch {
			if t < 0 || t >= r.n {
				return nil, fmt.Errorf("relation: delta patch of %q at tuple %d out of range [0,%d)", col, t, r.n)
			}
			touched[t] = true
			cells++
		}
	}
	for attr, up := range d.SetVG {
		if _, ok := r.stochIdx[attr]; !ok {
			return nil, fmt.Errorf("relation: delta replaces unknown stochastic attribute %q", attr)
		}
		if up.VG == nil {
			return nil, fmt.Errorf("relation: delta replaces %q with a nil VG", attr)
		}
		if up.Means != nil && len(up.Means) != r.n {
			return nil, fmt.Errorf("relation: delta means for %q has %d values, want %d", attr, len(up.Means), r.n)
		}
	}
	deletes := append([]int(nil), d.Delete...)
	sort.Ints(deletes)
	for i, t := range deletes {
		if t < 0 || t >= r.n {
			return nil, fmt.Errorf("relation: delta deletes tuple %d out of range [0,%d)", t, r.n)
		}
		if i > 0 && deletes[i-1] == t {
			return nil, fmt.Errorf("relation: delta deletes tuple %d twice", t)
		}
	}
	if len(d.Append) > 0 {
		for ri, row := range d.Append {
			if len(row) != len(r.detNames) {
				return nil, fmt.Errorf("relation: delta append row %d has %d values, want one per deterministic column (%d)", ri, len(row), len(r.detNames))
			}
			for _, name := range r.detNames {
				if _, ok := row[name]; !ok {
					return nil, fmt.Errorf("relation: delta append row %d misses column %q", ri, name)
				}
			}
		}
		for _, sa := range r.stochs {
			if _, ok := d.SetVG[sa.name]; ok {
				continue // the replacement VG is checked below against the new size
			}
			if !appendable(sa.vg) {
				return nil, fmt.Errorf("relation: stochastic attribute %q cannot be extended by append (needs a broadcast IndependentVG)", sa.name)
			}
		}
	}

	// --- apply copy-on-write: build replacement containers ---
	newCols := make([][]float64, len(r.detCols))
	r.lazyMu.Lock()
	copy(newCols, r.detCols)
	r.lazyMu.Unlock()
	newSrcs := append([]ColumnSource(nil), r.detSrcs...)
	newStochs := append([]stochAttr(nil), r.stochs...)
	newMeans := cloneMap(r.means)
	newOrig := r.origIdx
	newN := r.n

	cs := &ChangeSet{From: r.version.Load()}

	// 1. Deterministic cell patches.
	for col, patch := range d.Set {
		i := r.detIdx[col]
		old, err := r.residentCol(i, newCols[i])
		if err != nil {
			return nil, fmt.Errorf("relation: delta patching %q: %w", col, err)
		}
		nc := append([]float64(nil), old...)
		for t, v := range patch {
			nc[t] = v
		}
		newCols[i] = nc
		newSrcs[i] = nil // the patched column is resident from now on
		cs.Cols = append(cs.Cols, col)
	}
	sort.Strings(cs.Cols)
	cs.Tuples = sortedInts(touched)

	// 2. VG replacements.
	for attr, up := range d.SetVG {
		i := r.stochIdx[attr]
		newStochs[i] = stochAttr{name: attr, vg: up.VG, id: newStochID()}
		if up.Means != nil {
			newMeans[attr] = append([]float64(nil), up.Means...)
		}
		cs.Attrs = append(cs.Attrs, attr)
	}
	sort.Strings(cs.Attrs)

	// 3. Deletes: compact every container, composing OrigIndex so the
	// survivors keep their substream identity.
	if len(deletes) > 0 {
		drop := make(map[int]bool, len(deletes))
		for _, t := range deletes {
			drop[t] = true
		}
		surviving := make([]int, 0, newN-len(deletes))
		for t := 0; t < newN; t++ {
			if !drop[t] {
				surviving = append(surviving, t)
			}
		}
		if r.nextOrig == 0 {
			// First membership mutation: record the original-index
			// high-water mark before the index space shifts.
			r.nextOrig = r.baseSize()
		}
		for i := range newCols {
			old, err := r.residentCol(i, newCols[i])
			if err != nil {
				return nil, fmt.Errorf("relation: delta deleting from %q: %w", r.detNames[i], err)
			}
			nc := make([]float64, len(surviving))
			for k, t := range surviving {
				nc[k] = old[t]
			}
			newCols[i] = nc
			newSrcs[i] = nil
		}
		// Each stochastic attribute composes its own mapping with the
		// survivors: one SetVG installed on a compacted base reads the
		// tuple indices of its day, not the base's original ones.
		// Attributes that share a mapping share the composition.
		composed := map[*int][]int{}
		compose := func(own []int) []int {
			key := mappingKey(own)
			if m, ok := composed[key]; ok {
				return m
			}
			m := make([]int, len(surviving))
			for k, t := range surviving {
				if own != nil {
					m[k] = own[t]
				} else {
					m[k] = t
				}
			}
			composed[key] = m
			return m
		}
		newOrig = compose(newOrig)
		for i := range newStochs {
			sa := &newStochs[i]
			inner, own := unwrapVG(sa.vg)
			if own == nil {
				sa.span = newN
			}
			sa.vg = &remappedVG{inner: inner, orig: compose(own)}
		}
		for attr, m := range newMeans {
			nc := make([]float64, len(surviving))
			for k, t := range surviving {
				nc[k] = m[t]
			}
			newMeans[attr] = nc
		}
		newN = len(surviving)
		cs.Deleted = true
	}

	// 4. Appends.
	if a := len(d.Append); a > 0 {
		for i := range newCols {
			old, err := r.residentCol(i, newCols[i])
			if err != nil {
				return nil, fmt.Errorf("relation: delta appending to %q: %w", r.detNames[i], err)
			}
			nc := make([]float64, newN+a, newN+a)
			copy(nc, old)
			for j, row := range d.Append {
				nc[newN+j] = row[r.detNames[i]]
			}
			newCols[i] = nc
			newSrcs[i] = nil
		}
		// A remapped index space grows by fresh indices from its span; an
		// attribute that reads the tuple indices directly needs nothing.
		type extension struct {
			own  *int
			span int
		}
		extended := map[extension][]int{}
		extend := func(own []int, span int) []int {
			key := extension{mappingKey(own), span}
			if m, ok := extended[key]; ok {
				return m
			}
			m := make([]int, newN+a)
			copy(m, own)
			for j := 0; j < a; j++ {
				m[newN+j] = span + j
			}
			extended[key] = m
			return m
		}
		if newOrig != nil {
			if r.nextOrig == 0 {
				r.nextOrig = r.baseSize()
			}
			newOrig = extend(newOrig, r.nextOrig)
			r.nextOrig += a
		}
		for i := range newStochs {
			sa := &newStochs[i]
			if inner, own := unwrapVG(sa.vg); own != nil {
				sa.vg = &remappedVG{inner: inner, orig: extend(own, sa.span)}
				sa.span += a
			}
		}
		for attr, m := range newMeans {
			i := r.stochIdx[attr]
			vg := newStochs[i].vg
			nc := make([]float64, newN+a)
			copy(nc, m)
			for j := 0; j < a; j++ {
				mean := vg.ExactMean(newN + j)
				if mean != mean { // NaN: no closed form to extend with
					return nil, fmt.Errorf("relation: cannot extend means of %q on append (no closed-form mean)", attr)
				}
				nc[newN+j] = mean
			}
			newMeans[attr] = nc
		}
		newN += a
		cs.Appended = a
	}

	if cs.Empty() {
		cs.To = cs.From
		return cs, nil // nothing changed; do not bump the version
	}

	// --- commit ---
	r.lazyMu.Lock()
	r.detCols = newCols
	r.lazyMu.Unlock()
	r.detSrcs = newSrcs
	r.stochs = newStochs
	r.means = newMeans
	r.origIdx = newOrig
	r.n = newN
	to := r.version.Add(1)
	cs.To = to
	for _, c := range cs.Cols {
		r.colEpochs = setEpoch(r.colEpochs, c, to)
	}
	for _, a := range cs.Attrs {
		r.colEpochs = setEpoch(r.colEpochs, a, to)
	}
	if cs.MembershipChanged() {
		r.memberEpoch = to
	}
	r.deltaLog = append(r.deltaLog, cs)
	if len(r.deltaLog) > deltaLogCap {
		r.deltaLog = append([]*ChangeSet(nil), r.deltaLog[len(r.deltaLog)-deltaLogCap:]...)
	}
	r.snap = nil

	deltasApplied.Add(1)
	deltaCells.Add(int64(cells))
	deltaAppends.Add(int64(cs.Appended))
	deltaDeletes.Add(int64(len(deletes)))
	return cs, nil
}

// ColumnEpoch returns the version at which the named column or attribute
// last changed through a delta (0 when never delta-patched), and the
// version at which the tuple membership last changed.
func (r *Relation) ColumnEpoch(name string) (colEpoch, memberEpoch uint64) {
	host := r.Base()
	host.mutMu.Lock()
	defer host.mutMu.Unlock()
	return host.colEpochs[name], host.memberEpoch
}

func setEpoch(m map[string]uint64, k string, v uint64) map[string]uint64 {
	if m == nil {
		m = map[string]uint64{}
	}
	m[k] = v
	return m
}

// residentCol returns the resident values of column i, reading fully
// through the source when the column is lazy (without promoting the shared
// column — the caller is building a private replacement anyway).
func (r *Relation) residentCol(i int, col []float64) ([]float64, error) {
	if col != nil {
		return col, nil
	}
	src := r.detSrcs[i]
	if src == nil {
		return nil, fmt.Errorf("column %d has neither resident values nor a source", i)
	}
	out := make([]float64, r.n)
	if err := src.ReadAt(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// baseSize returns the size of the original base index space (the
// high-water original index + 1).
func (r *Relation) baseSize() int {
	if r.origIdx == nil {
		return r.n
	}
	max := 0
	for _, t := range r.origIdx {
		if t >= max {
			max = t + 1
		}
	}
	return max
}

// appendable reports whether a VG function can serve tuple indices beyond
// the current size (only broadcast IndependentVGs can: every tuple draws
// from the same distribution under its own substream).
func appendable(vg VGFunc) bool {
	switch v := vg.(type) {
	case *IndependentVG:
		return len(v.Dists) == 1
	case *remappedVG:
		return appendable(v.inner)
	default:
		return false
	}
}

// unwrapVG splits a base relation's VG into its innermost VG and the
// mapping from tuples to that VG's indices (nil: the tuple indices
// themselves). A base wraps at most once: deletes and appends replace the
// mapping, never nest it.
func unwrapVG(vg VGFunc) (VGFunc, []int) {
	if rv, ok := vg.(*remappedVG); ok {
		return rv.inner, rv.orig
	}
	return vg, nil
}

// mappingKey identifies a mapping by its backing array (nil for none), so
// attributes sharing one compose or extend it once.
func mappingKey(m []int) *int {
	if len(m) == 0 {
		return nil
	}
	return &m[0]
}
