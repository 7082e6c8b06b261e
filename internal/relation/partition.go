// Partitioning is the storage half of the partition-aware solve pipeline:
// a first-class descriptor of a tuple partitioning (shard → tuple index
// sets) that the sketch layer and the engine plan against. Partitionings
// are built once per (spec, relation version) and cached on the relation,
// so repeated queries — and the engine's cached plans — never re-cluster.
//
// A partitioning has two levels. *Groups* are the τ-sized cells of
// SketchRefine (Brucato et al., VLDB 2018): similar tuples with one
// representative (medoid) each. *Shards* are contiguous runs of groups that
// form the unit of parallel sketch solving; a 1-shard partitioning is
// exactly the classic single-solve sketch. Groups are built by seeded
// k-means over feature columns; shards split the group list into near-equal
// contiguous runs, which keeps shard composition deterministic and
// independent of worker count.

package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spq/internal/rng"
)

// kmeansIters bounds the Lloyd iterations of every k-means grouping.
const kmeansIters = 12

// PartitionSpec describes how to build a Partitioning. The zero value means
// k-means with τ = 64 over the spec's features, one shard.
type PartitionSpec struct {
	// Features names the attribute columns to cluster on (deterministic
	// columns pass through; stochastic attributes contribute their cached
	// mean columns). Required.
	Features []string
	// GroupSize is the partitioning threshold τ: groups hold at most ~τ
	// tuples (default 64).
	GroupSize int
	// Seed drives k-means initialization.
	Seed uint64
	// Shards is the number of solver shards the groups are split into
	// (default 1 = the classic single sketch solve). Clamped to the number
	// of groups.
	Shards int
}

func (s PartitionSpec) withDefaults() PartitionSpec {
	// Non-positive values (possibly from unvalidated client input) take the
	// defaults: a negative τ would reach the chunk-splitting loops as a
	// negative slice bound.
	if s.GroupSize <= 0 {
		s.GroupSize = 64
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	return s
}

// groupKey renders the grouping-relevant spec fields canonically: two specs
// differing only in Shards share the (expensive) clustering work.
func (s PartitionSpec) groupKey() string {
	return fmt.Sprintf("tau=%d|seed=%d|feat=%s",
		s.GroupSize, s.Seed, strings.Join(s.Features, ","))
}

// key renders the spec canonically for the relation's partition cache.
func (s PartitionSpec) key() string {
	return fmt.Sprintf("%s|shards=%d", s.groupKey(), s.Shards)
}

// Partitioning is a cached tuple partitioning of one relation version.
// It is immutable after construction and safe to share across goroutines.
type Partitioning struct {
	// Spec is the (defaulted) spec the partitioning was built from.
	Spec PartitionSpec
	// Version is the relation version the partitioning was built against.
	Version uint64

	// GroupOf maps each tuple to its group id.
	GroupOf []int
	// Groups lists tuple indices per group.
	Groups [][]int
	// Medoids holds the representative tuple per group.
	Medoids []int

	// ShardOf maps each tuple to its shard.
	ShardOf []int
	// ShardGroups lists the group ids of each shard (contiguous runs of the
	// group order).
	ShardGroups [][]int
}

// NumGroups returns the number of groups.
func (p *Partitioning) NumGroups() int { return len(p.Groups) }

// NumShards returns the number of shards.
func (p *Partitioning) NumShards() int { return len(p.ShardGroups) }

// ShardTuples returns the tuple index set of one shard, in tuple order
// within each group, groups in shard order.
func (p *Partitioning) ShardTuples(shard int) []int {
	var out []int
	for _, g := range p.ShardGroups[shard] {
		out = append(out, p.Groups[g]...)
	}
	return out
}

// maxCachedPartitionings bounds each of the per-relation partition caches.
// Specs are influenced by clients (the engine's sketch options come from
// the request), so the caches cannot be allowed to grow with spec churn;
// past the cap they reset wholesale — the next request simply recomputes.
const maxCachedPartitionings = 16

// Partition returns the relation's partitioning for the spec, building and
// caching it on first use. The cache is keyed by the canonical spec and
// invalidated by the relation's version counter, so partitioning is computed
// once per relation version instead of inside every sketch solve. Safe for
// concurrent use; the (possibly expensive) clustering runs outside the
// cache lock, so concurrent cache hits never block behind a build. Two
// goroutines racing on the same uncached spec may both build — wasted work,
// never a wrong answer (building is a pure function of spec + columns), and
// the first stored descriptor wins so callers still share one pointer.
func (r *Relation) Partition(spec PartitionSpec) (*Partitioning, error) {
	spec = spec.withDefaults()
	key := spec.key()
	gkey := spec.groupKey()

	// Snapshots delegate to the base relation's cache: every snapshot of
	// one version shares the cached partitionings, and partitionings of
	// older versions stay available as patch sources across epochs.
	host := r.Base()

	host.partMu.Lock()
	version := r.Version()
	if p, ok := host.parts[key]; ok && p.Version == version {
		host.partMu.Unlock()
		return p, nil
	}
	var prev *Partitioning
	if p, ok := host.parts[key]; ok && p.Version < version {
		prev = p
	}
	gs, ok := host.groupSets[gkey]
	if !ok || gs.version != version {
		gs = nil
	}
	host.partMu.Unlock()

	var p *Partitioning
	if gs == nil && prev != nil {
		// Delta-scoped reuse: a cached partitioning of an older version is
		// retained (rebased) when the delta footprint is disjoint from the
		// clustering inputs, or patched (only affected shards re-clustered)
		// when per-tuple changes are known. Falls through to a full rebuild
		// when the history is unavailable or the change is structural.
		if cs, ok := host.Changes(prev.Version); ok && cs.To == version && !cs.Wholesale {
			p = r.reusePartitioning(prev, spec, cs, version)
		}
	}
	if p == nil {
		if gs == nil {
			var err error
			if gs, err = r.buildGroups(spec, version); err != nil {
				return nil, err
			}
			partsRebuilt.Add(1)
		}
		p = assemblePartitioning(spec, gs, r.n)
	} else {
		gs = &groupSet{version: version, groupOf: p.GroupOf, groups: p.Groups, medoids: p.Medoids}
	}

	host.partMu.Lock()
	defer host.partMu.Unlock()
	if host.parts == nil {
		host.parts = map[string]*Partitioning{}
	}
	if host.groupSets == nil {
		host.groupSets = map[string]*groupSet{}
	}
	cur := host.Version()
	// Purge entries that can no longer serve as patch sources (their
	// version fell off the delta log), then bound both caches (specs are
	// client-influenced via the engine, so they must not grow unboundedly).
	for k, v := range host.parts {
		if v.Version == cur {
			continue
		}
		if _, ok := host.Changes(v.Version); !ok {
			delete(host.parts, k)
		}
	}
	for k, v := range host.groupSets {
		if v.version == cur {
			continue
		}
		if _, ok := host.Changes(v.version); !ok {
			delete(host.groupSets, k)
		}
	}
	if len(host.parts) >= maxCachedPartitionings {
		clear(host.parts)
	}
	if len(host.groupSets) >= maxCachedPartitionings {
		clear(host.groupSets)
	}
	if incumbent, ok := host.parts[key]; ok {
		if incumbent.Version == version {
			return incumbent, nil // a concurrent build won the race
		}
		if incumbent.Version > version {
			// A pre-delta snapshot rebuilt for its own (older) version while
			// the cache already moved on: hand the snapshot its matching
			// partitioning without clobbering the newer cache entry.
			return p, nil
		}
	}
	host.parts[key] = p
	host.groupSets[gkey] = gs
	return p, nil
}

// reusePartitioning tries to carry a cached partitioning of an older
// version forward through a change set: rebased untouched when the
// footprint misses the clustering inputs, patched shard-wise when only
// deterministic feature cells changed or tuples were appended. Returns nil
// when a full rebuild is required.
func (r *Relation) reusePartitioning(prev *Partitioning, spec PartitionSpec, cs *ChangeSet, version uint64) *Partitioning {
	featuresTouched := cs.Touches(spec.Features)
	if !featuresTouched && !cs.MembershipChanged() {
		np := *prev
		np.Version = version
		partsRetained.Add(1)
		shardsRetained.Add(int64(prev.NumShards()))
		return &np
	}
	if cs.Deleted || cs.Wholesale {
		return nil // the index space shifted: per-tuple patching is unsound
	}
	for _, a := range cs.Attrs {
		for _, f := range spec.Features {
			if a == f {
				return nil // a whole feature column changed (VG replaced)
			}
		}
	}
	if prev.NumShards() == 0 || len(prev.ShardOf) == 0 {
		return nil
	}
	p, err := r.patchPartitioning(prev, spec, cs, version)
	if err != nil {
		return nil
	}
	return p
}

// patchPartitioning re-clusters only the shards whose tuples were touched
// by the change set (plus the shards that deterministically receive the
// appended tuples) and splices them into the previous partitioning. The
// patched result is a valid partitioning of the new version but is not
// guaranteed to be bit-identical to a cold rebuild — clustering is local to
// the affected shards, which is the point.
func (r *Relation) patchPartitioning(prev *Partitioning, spec PartitionSpec, cs *ChangeSet, version uint64) (*Partitioning, error) {
	numShards := prev.NumShards()
	prevN := len(prev.ShardOf)
	affected := make([]bool, numShards)
	// Tuples whose feature cells changed may belong in a different group.
	touchesFeatures := cs.Touches(spec.Features)
	if touchesFeatures {
		for _, t := range cs.Tuples {
			if t < prevN {
				affected[prev.ShardOf[t]] = true
			}
		}
	}

	features, err := r.featureCols(spec.Features)
	if err != nil {
		return nil, err
	}

	// Route each appended tuple deterministically to the shard of its
	// nearest medoid on the current feature values.
	appendTo := make([][]int, numShards)
	for t := prevN; t < r.n; t++ {
		best, bestD := 0, math.Inf(1)
		for g, m := range prev.Medoids {
			d := 0.0
			for _, col := range features {
				diff := col[t] - col[m]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = g, d
			}
		}
		// A group's medoid is one of its members, so the medoid's shard is
		// the group's.
		s := prev.ShardOf[prev.Medoids[best]]
		affected[s] = true
		appendTo[s] = append(appendTo[s], t)
	}

	p := &Partitioning{Spec: spec, Version: version}
	p.ShardGroups = make([][]int, numShards)
	rebuilt, retained := 0, 0
	for s := 0; s < numShards; s++ {
		if !affected[s] {
			for _, g := range prev.ShardGroups[s] {
				gid := len(p.Groups)
				p.Groups = append(p.Groups, prev.Groups[g])
				p.Medoids = append(p.Medoids, prev.Medoids[g])
				p.ShardGroups[s] = append(p.ShardGroups[s], gid)
			}
			retained++
			continue
		}
		idx := append(prev.ShardTuples(s), appendTo[s]...)
		sort.Ints(idx)
		groups, medoids := regroupSubset(spec, features, idx)
		for gi, g := range groups {
			gid := len(p.Groups)
			p.Groups = append(p.Groups, g)
			p.Medoids = append(p.Medoids, medoids[gi])
			p.ShardGroups[s] = append(p.ShardGroups[s], gid)
		}
		rebuilt++
	}
	p.GroupOf = make([]int, r.n)
	p.ShardOf = make([]int, r.n)
	for s, groups := range p.ShardGroups {
		for _, g := range groups {
			for _, t := range p.Groups[g] {
				p.GroupOf[t] = g
				p.ShardOf[t] = s
			}
		}
	}
	partsPatched.Add(1)
	shardsRebuilt.Add(int64(rebuilt))
	shardsRetained.Add(int64(retained))
	return p, nil
}

// regroupSubset runs k-means restricted to the given (ascending) tuple
// indices, returning groups/medoids in the global index space.
func regroupSubset(spec PartitionSpec, features [][]float64, idx []int) (groups [][]int, medoids []int) {
	m := len(idx)
	if m == 0 {
		return nil, nil
	}
	sub := make([][]float64, len(features))
	for d, col := range features {
		sc := make([]float64, m)
		for j, t := range idx {
			sc[j] = col[t]
		}
		sub[d] = sc
	}
	_, sg, sm := kmeansGroups(sub, m, spec.GroupSize, kmeansIters, spec.Seed)
	return mapBack(sg, sm, idx)
}

// mapBack translates subset-local group member and medoid indices to the
// global tuple index space.
func mapBack(groups [][]int, medoids []int, idx []int) ([][]int, []int) {
	out := make([][]int, len(groups))
	for gi, g := range groups {
		og := make([]int, len(g))
		for j, t := range g {
			og[j] = idx[t]
		}
		out[gi] = og
	}
	om := make([]int, len(medoids))
	for i, mdx := range medoids {
		om[i] = idx[mdx]
	}
	return out, om
}

// groupSet is the cached clustering level of a partitioning, shared by
// every shard count over the same grouping spec.
type groupSet struct {
	version uint64
	groupOf []int
	groups  [][]int
	medoids []int
}

// buildGroups runs k-means — the expensive, shard-count-independent half of
// a partitioning. It only reads the relation's columns (immutable once
// added), so it is safe to run without the cache lock.
func (r *Relation) buildGroups(spec PartitionSpec, version uint64) (*groupSet, error) {
	gs := &groupSet{version: version}
	if r.n == 0 {
		return gs, nil
	}
	features, err := r.featureCols(spec.Features)
	if err != nil {
		return nil, err
	}
	gs.groupOf, gs.groups, gs.medoids = kmeansGroups(features, r.n, spec.GroupSize, kmeansIters, spec.Seed)
	return gs, nil
}

// assemblePartitioning splits the group order into near-equal contiguous
// shard runs around a (possibly shared) group set.
func assemblePartitioning(spec PartitionSpec, gs *groupSet, n int) *Partitioning {
	p := &Partitioning{Spec: spec, Version: gs.version}
	p.GroupOf, p.Groups, p.Medoids = gs.groupOf, gs.groups, gs.medoids

	shards := spec.Shards
	if g := len(p.Groups); shards > g {
		shards = g
	}
	p.ShardGroups = make([][]int, shards)
	for s := 0; s < shards; s++ {
		lo := s * len(p.Groups) / shards
		hi := (s + 1) * len(p.Groups) / shards
		for g := lo; g < hi; g++ {
			p.ShardGroups[s] = append(p.ShardGroups[s], g)
		}
	}
	p.ShardOf = make([]int, n)
	for s, groups := range p.ShardGroups {
		for _, g := range groups {
			for _, t := range p.Groups[g] {
				p.ShardOf[t] = s
			}
		}
	}
	return p
}

func (r *Relation) featureCols(names []string) ([][]float64, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("relation: partition spec names no feature columns")
	}
	out := make([][]float64, len(names))
	for i, name := range names {
		col, err := r.Means(name) // det columns pass through, stoch = means
		if err != nil {
			return nil, err
		}
		out[i] = col
	}
	return out, nil
}

// kmeansGroups clusters tuples on the feature columns using seeded k-means
// with k = ⌈N/τ⌉ and picks the tuple nearest each centroid as the group
// representative. Oversized clusters (k-means may collapse clusters when
// many tuples share identical features) are split into τ-sized chunks;
// members within a cluster are interchangeable for sketching purposes.
//
// The assignment step is Lloyd's, exactly: every tuple goes to the
// lowest-id centroid at its minimum squared distance. It only skips the
// centroids that provably cannot win (see centroidIndex.nearest), so groupOf,
// groups and medoids are the ones the full n·k scan gives, bit for bit.
func kmeansGroups(features [][]float64, n, tau, iters int, seed uint64) (groupOf []int, groups [][]int, medoids []int) {
	k := (n + tau - 1) / tau
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dims := len(features)
	// Normalize features to [0, 1] so distances are scale-free. Points are
	// stored row-major: point i is pts[i*dims : (i+1)*dims].
	pts := make([]float64, n*dims)
	finite := true
	for d, col := range features {
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		span := hi - lo
		if span < 1e-12 {
			span = 1
		}
		for i, v := range col {
			x := (v - lo) / span
			pts[i*dims+d] = x
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
	}
	point := func(i int) []float64 { return pts[i*dims : (i+1)*dims] }
	// Seeded distinct random initialization.
	st := rng.NewStream(rng.Mix(seed, 0x5ce7c4))
	cents := make([]float64, k*dims)
	centroid := func(c int) []float64 { return cents[c*dims : (c+1)*dims] }
	used := map[int]bool{}
	for c := 0; c < k; c++ {
		var pick int
		for {
			pick = st.IntN(n)
			if !used[pick] {
				used[pick] = true
				break
			}
		}
		copy(centroid(c), point(pick))
	}
	assign := make([]int, n)
	counts := make([]int, k)
	var idx *centroidIndex
	if finite {
		// A non-finite coordinate breaks both pruning arguments (NaN
		// compares false, Inf−Inf is NaN): such a run scans every centroid.
		idx = &centroidIndex{sep: make([]float64, k), order: make([]int, k), first: make([]float64, k)}
	}
	for it := 0; it < iters; it++ {
		changed := false
		if idx != nil {
			idx.rebuild(cents, dims)
		}
		for i := 0; i < n; i++ {
			x := point(i)
			var best int
			if idx != nil {
				best = idx.nearest(x, cents, dims, assign[i])
			} else {
				bestD := math.Inf(1)
				for c := 0; c < k; c++ {
					if d := sqDist(x, centroid(c)); d < bestD {
						best, bestD = c, d
					}
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		clear(counts)
		clear(cents)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			ct, x := centroid(c), point(i)
			for d := 0; d < dims; d++ {
				ct[d] += x[d]
			}
		}
		for c := 0; c < k; c++ {
			ct := centroid(c)
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(ct, point(st.IntN(n)))
				continue
			}
			for d := 0; d < dims; d++ {
				ct[d] /= float64(counts[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	groupOf = make([]int, n)
	members := map[int][]int{}
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	for c := 0; c < k; c++ {
		cluster := members[c]
		if len(cluster) == 0 {
			continue
		}
		for start := 0; start < len(cluster); start += tau {
			end := start + tau
			if end > len(cluster) {
				end = len(cluster)
			}
			chunk := cluster[start:end]
			gid := len(groups)
			groups = append(groups, chunk)
			// Medoid: chunk member closest to the centroid.
			best, bestD := chunk[0], math.Inf(1)
			for _, i := range chunk {
				if d := sqDist(point(i), centroid(c)); d < bestD {
					best, bestD = i, d
				}
			}
			medoids = append(medoids, best)
			for _, i := range chunk {
				groupOf[i] = gid
			}
		}
	}
	return groupOf, groups, medoids
}

// sqDist is the squared Euclidean distance between a point and a centroid,
// summed in dimension order. Every distance k-means compares comes from
// here, so the pruned and the full assignment scan compare the same
// float64s.
func sqDist(x, c []float64) float64 {
	s := 0.0
	for d := range x {
		diff := x[d] - c[d]
		s += diff * diff
	}
	return s
}

// skipSlack is the relative margin the skip test leaves on each side for
// rounding: a float64 squared distance over finite coordinates is within a
// few units in the last place of the exact one, far inside 1e-9.
const skipSlack = 1e-9

// minSkipSep is the smallest centroid separation the skip test trusts.
// Below it the squares may be subnormal, where rounding error is absolute,
// not relative.
const minSkipSep = 1e-300

// centroidIndex is the per-iteration view of the centroids that lets the
// assignment step skip centroids which cannot be nearest. It is only used
// when every coordinate is finite.
type centroidIndex struct {
	// sep[c] is (1−skipSlack) times the squared distance from centroid c to
	// its nearest other centroid (+Inf when k = 1).
	sep []float64
	// order lists centroid ids by first coordinate, ties by id; first holds
	// those coordinates in the same order.
	order []int
	first []float64
}

// rebuild refreshes the index for the current centroids.
func (ix *centroidIndex) rebuild(cents []float64, dims int) {
	k := len(ix.sep)
	for c := range ix.sep {
		ix.sep[c] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		ca := cents[a*dims : (a+1)*dims]
		for c := a + 1; c < k; c++ {
			d := sqDist(ca, cents[c*dims:(c+1)*dims])
			ix.sep[a] = math.Min(ix.sep[a], d)
			ix.sep[c] = math.Min(ix.sep[c], d)
		}
	}
	for c := range ix.sep {
		ix.sep[c] *= 1 - skipSlack
		ix.order[c] = c
	}
	sort.Slice(ix.order, func(i, j int) bool {
		a, b := ix.order[i], ix.order[j]
		if fa, fb := cents[a*dims], cents[b*dims]; fa != fb {
			return fa < fb
		}
		return a < b
	})
	for j, c := range ix.order {
		ix.first[j] = cents[c*dims]
	}
}

// nearest returns Lloyd's choice for point x, whose current centroid
// is a: the lowest-id centroid at the minimum squared distance. Two exact
// arguments keep it from looking at every centroid.
//
// Skip: if 4·d²(x,a) < d²(a,c) for every c ≠ a, then by the triangle
// inequality d(x,c) ≥ d(a,c) − d(x,a) > d(x,a), so a is the unique nearest
// centroid (Elkan 2003, Lemma 1). The test runs on float64 squares with a
// skipSlack margin on both sides, which covers their rounding.
//
// Scan: otherwise centroids are visited outward from x's first coordinate
// in first-coordinate order, and each direction stops once (x₀−c₀)² exceeds
// the best distance so far. That square is the first term of sqDist's sum,
// adding non-negative terms never lowers a float64 sum, and it only grows
// further out, so no centroid past the stop can reach the best. Equal
// distances keep the lower id, as Lloyd's first-minimum scan does.
func (ix *centroidIndex) nearest(x, cents []float64, dims, a int) int {
	best, bestD := a, sqDist(x, cents[a*dims:(a+1)*dims])
	if sep := ix.sep[a]; sep > minSkipSep && 4*bestD*(1+skipSlack) < sep {
		return a
	}
	try := func(j int) bool {
		g := x[0] - ix.first[j]
		if g*g > bestD {
			return false
		}
		if c := ix.order[j]; c != a {
			d := sqDist(x, cents[c*dims:(c+1)*dims])
			if d < bestD || d == bestD && c < best {
				best, bestD = c, d
			}
		}
		return true
	}
	pos := sort.SearchFloat64s(ix.first, x[0])
	for j := pos; j < len(ix.first); j++ {
		if !try(j) {
			break
		}
	}
	for j := pos - 1; j >= 0; j-- {
		if !try(j) {
			break
		}
	}
	return best
}
