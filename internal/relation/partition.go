// Partitioning is the storage half of the partition-aware solve pipeline:
// a first-class descriptor of a tuple partitioning (shard → tuple index
// sets) that the sketch layer and the engine plan against. Partitionings
// are built once per (spec, relation version) and cached on the relation,
// so repeated queries — and the engine's cached plans — never re-cluster.
//
// A partitioning has two levels. *Groups* are the τ-sized cells of
// SketchRefine (Brucato et al., VLDB 2018): similar tuples with one
// representative (medoid) each. *Shards* are the unit of parallel sketch
// solving: tuple i belongs to shard i mod S, and each shard's groups come
// from seeded k-means over that shard's tuples alone. A 1-shard
// partitioning is exactly the classic single-solve sketch. Because a
// shard's groups depend only on its own tuples, a delta re-clusters just
// the shards it touches and still equals a cold build, and shard
// composition never depends on worker count.

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
	// Shards is the number of solver shards the tuples are dealt to
	// (default 1 = the classic single sketch solve), each clustered on its
	// own, so the count changes the groups too. Clamped to ⌈n/τ⌉.
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

// key renders the spec canonically for the relation's partition cache.
func (s PartitionSpec) key() string {
	return fmt.Sprintf("tau=%d|seed=%d|feat=%s|shards=%d",
		s.GroupSize, s.Seed, strings.Join(s.Features, ","), s.Shards)
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

	// ShardGroups lists the group ids of each shard: shard s holds the
	// tuples i with i mod NumShards() = s, and its groups are one
	// contiguous run of ids, shard 0's first.
	ShardGroups [][]int
}

// NumGroups returns the number of groups.
func (p *Partitioning) NumGroups() int { return len(p.Groups) }

// NumShards returns the number of shards.
func (p *Partitioning) NumShards() int { return len(p.ShardGroups) }

// maxCachedPartitionings bounds the per-relation partition cache. Specs are
// influenced by clients (the engine's sketch options come from the
// request), so the cache cannot be allowed to grow with spec churn; past
// the cap it resets wholesale — the next request simply recomputes.
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

	// Snapshots delegate to the base relation's cache: every snapshot of
	// one version shares the cached partitionings, and partitionings of
	// older versions stay available as patch sources across epochs.
	host := r.Base()

	host.partMu.Lock()
	version := r.Version()
	prev := host.parts[key]
	host.partMu.Unlock()
	if prev != nil && prev.Version == version {
		return prev, nil
	}

	var p *Partitioning
	if prev != nil && prev.Version < version {
		// Delta-scoped reuse: a cached partitioning of an older version is
		// retained (rebased) when the delta footprint is disjoint from the
		// clustering inputs, or patched (only affected shards re-clustered,
		// bit-identical to a rebuild) when per-tuple changes are known.
		// Falls through to a full rebuild when the history is unavailable
		// or the change is structural.
		if cs, ok := host.Changes(prev.Version); ok && cs.To == version && !cs.Wholesale {
			p = r.reusePartitioning(prev, spec, cs, version)
		}
	}
	if p == nil {
		var err error
		if p, err = r.buildPartitioning(spec, version); err != nil {
			return nil, err
		}
		partsRebuilt.Add(1)
	}

	host.partMu.Lock()
	defer host.partMu.Unlock()
	if host.parts == nil {
		host.parts = map[string]*Partitioning{}
	}
	cur := host.Version()
	// Purge entries that can no longer serve as patch sources (their
	// version fell off the delta log), then bound the cache (specs are
	// client-influenced via the engine, so it must not grow unboundedly).
	for k, v := range host.parts {
		if v.Version == cur {
			continue
		}
		if _, ok := host.Changes(v.Version); !ok {
			delete(host.parts, k)
		}
	}
	if len(host.parts) >= maxCachedPartitionings {
		clear(host.parts)
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
	return p, nil
}

// reusePartitioning carries a cached partitioning of an older version
// forward through a change set: rebased untouched when the footprint misses
// the clustering inputs, patched when only deterministic feature cells
// changed or tuples were appended. A patch re-clusters just the shards
// holding touched or appended tuples, the same per-shard call a build
// makes, so it equals a cold build. Returns nil when a full rebuild is
// required.
func (r *Relation) reusePartitioning(prev *Partitioning, spec PartitionSpec, cs *ChangeSet, version uint64) *Partitioning {
	featuresTouched := cs.Touches(spec.Features)
	if !featuresTouched && !cs.MembershipChanged() {
		np := *prev
		np.Version = version
		partsRetained.Add(1)
		shardsRetained.Add(int64(prev.NumShards()))
		return &np
	}
	shards := prev.NumShards()
	if cs.Deleted || cs.Wholesale || shards != numShards(spec, r.n) {
		return nil // the index space or the dealing of tuples to shards moved
	}
	for _, a := range cs.Attrs {
		for _, f := range spec.Features {
			if a == f {
				return nil // a whole feature column changed (VG replaced)
			}
		}
	}
	dirty := make([]bool, shards)
	if featuresTouched {
		for _, t := range cs.Tuples {
			dirty[t%shards] = true
		}
	}
	for t := r.n - cs.Appended; t < r.n; t++ {
		dirty[t%shards] = true
	}
	p, err := r.partitionShards(spec, version, prev, dirty)
	if err != nil {
		return nil
	}
	rebuilt := 0
	for _, d := range dirty {
		if d {
			rebuilt++
		}
	}
	partsPatched.Add(1)
	shardsRebuilt.Add(int64(rebuilt))
	shardsRetained.Add(int64(shards - rebuilt))
	return p
}

// numShards is the shard count S = min(spec.Shards, ⌈n/τ⌉) of an n-tuple
// partitioning, so that every shard holds at least one tuple.
func numShards(spec PartitionSpec, n int) int {
	return min(spec.Shards, (n+spec.GroupSize-1)/spec.GroupSize)
}

// buildPartitioning clusters every shard of the relation. It only reads the
// relation's columns (immutable once added), so it is safe to run without
// the cache lock.
func (r *Relation) buildPartitioning(spec PartitionSpec, version uint64) (*Partitioning, error) {
	return r.partitionShards(spec, version, nil, nil)
}

// partitionShards deals tuple i to shard i mod S and clusters each shard
// alone, by kmeansGroups over the shard's own tuples seeded with spec.Seed,
// so a shard's groups depend on nothing but its tuples. Shard s's groups
// take the next run of group ids. A shard not marked dirty copies its
// groups from prev, a partitioning with the same S whose shard s held the
// same tuples with the same features; a nil dirty marks every shard.
func (r *Relation) partitionShards(spec PartitionSpec, version uint64, prev *Partitioning, dirty []bool) (*Partitioning, error) {
	shards := numShards(spec, r.n)
	p := &Partitioning{Spec: spec, Version: version, GroupOf: make([]int, r.n), ShardGroups: make([][]int, shards)}
	var features [][]float64
	for s := range shards {
		var groups [][]int
		var medoids []int
		if dirty != nil && !dirty[s] {
			run := prev.ShardGroups[s]
			lo, hi := run[0], run[len(run)-1]+1
			groups, medoids = prev.Groups[lo:hi], prev.Medoids[lo:hi]
		} else {
			if features == nil {
				var err error
				if features, err = r.featureCols(spec.Features); err != nil {
					return nil, err
				}
			}
			groups, medoids = clusterShard(spec, features, s, shards)
		}
		for gi, g := range groups {
			gid := len(p.Groups)
			p.Groups = append(p.Groups, g)
			p.Medoids = append(p.Medoids, medoids[gi])
			p.ShardGroups[s] = append(p.ShardGroups[s], gid)
			for _, t := range g {
				p.GroupOf[t] = gid
			}
		}
	}
	return p, nil
}

// clusterShard runs kmeansGroups over the tuples s, s+S, s+2S, … and
// returns their groups and medoids as tuple indices of the relation. With
// one shard that is the clustering of every tuple.
func clusterShard(spec PartitionSpec, features [][]float64, s, shards int) (groups [][]int, medoids []int) {
	m := (len(features[0]) - s + shards - 1) / shards
	sub := make([][]float64, len(features))
	for d, col := range features {
		sc := make([]float64, m)
		for j := range sc {
			sc[j] = col[s+j*shards]
		}
		sub[d] = sc
	}
	_, groups, medoids = kmeansGroups(sub, m, spec.GroupSize, kmeansIters, spec.Seed)
	// Local index j is tuple s+j·S; the group slices are disjoint, so the
	// indices are translated in place.
	for _, g := range groups {
		for j, t := range g {
			g[j] = s + t*shards
		}
	}
	for i, t := range medoids {
		medoids[i] = s + t*shards
	}
	return groups, medoids
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
