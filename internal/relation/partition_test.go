package relation

import (
	"reflect"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

// partRelation builds a 1-feature relation with two well-separated clusters.
func partRelation(t *testing.T, n int) *Relation {
	t.Helper()
	col := make([]float64, n)
	for i := range col {
		if i < n/2 {
			col[i] = float64(i) * 0.01
		} else {
			col[i] = 10 + float64(i)*0.01
		}
	}
	rel := New("r", n)
	if err := rel.AddDet("v", col); err != nil {
		t.Fatal(err)
	}
	return rel
}

func checkCover(t *testing.T, p *Partitioning, n int) {
	t.Helper()
	total := 0
	for gid, members := range p.Groups {
		total += len(members)
		med := p.Medoids[gid]
		found := false
		for _, m := range members {
			if m == med {
				found = true
			}
		}
		if !found {
			t.Fatalf("medoid %d not a member of group %d", med, gid)
		}
	}
	if total != n {
		t.Fatalf("groups cover %d tuples, want %d", total, n)
	}
	for i, g := range p.GroupOf {
		inGroup := false
		for _, m := range p.Groups[g] {
			if m == i {
				inGroup = true
			}
		}
		if !inGroup {
			t.Fatalf("tuple %d not in its own group %d", i, g)
		}
	}
	// Shards cover every group exactly once, in contiguous runs.
	seen := 0
	next := 0
	for s, groups := range p.ShardGroups {
		for _, g := range groups {
			if g != next {
				t.Fatalf("shard %d holds group %d, want contiguous run at %d", s, g, next)
			}
			next++
			seen++
		}
	}
	if seen != p.NumGroups() {
		t.Fatalf("shards cover %d groups, want %d", seen, p.NumGroups())
	}
	for s, groups := range p.ShardGroups {
		for _, tup := range p.ShardTuples(s) {
			if p.ShardOf[tup] != s {
				t.Fatalf("tuple %d in ShardTuples(%d) but ShardOf = %d", tup, s, p.ShardOf[tup])
			}
		}
		// Appended tuples reach a group's shard through its medoid.
		for _, g := range groups {
			if got := p.ShardOf[p.Medoids[g]]; got != s {
				t.Fatalf("group %d is in shard %d but its medoid %d is in shard %d", g, s, p.Medoids[g], got)
			}
		}
	}
}

func TestPartitionKMeansBasics(t *testing.T) {
	n := 40
	rel := partRelation(t, n)
	p, err := rel.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 2 {
		t.Fatalf("got %d groups, want ≥ 2", len(p.Groups))
	}
	checkCover(t, p, n)
	// The two natural clusters should not be merged.
	if p.GroupOf[0] == p.GroupOf[n-1] {
		t.Fatal("separated clusters merged")
	}
}

func TestPartitionCachePerVersion(t *testing.T) {
	rel := partRelation(t, 40)
	spec := PartitionSpec{Features: []string{"v"}, GroupSize: 10, Seed: 3, Shards: 2}
	a, err := rel.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rel.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical spec on unchanged relation rebuilt the partitioning")
	}
	// A different spec gets its own entry; the first stays cached.
	other, err := rel.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("different spec shared a cache entry")
	}
	if again, _ := rel.Partition(spec); again != a {
		t.Fatal("cache entry evicted by an unrelated spec")
	}
	// A version bump (schema/means mutation) invalidates the entry.
	if err := rel.AddDet("w", make([]float64, 40)); err != nil {
		t.Fatal(err)
	}
	c, err := rel.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("version bump did not invalidate the cached partitioning")
	}
	if c.Version != rel.Version() {
		t.Fatalf("rebuilt partitioning has version %d, relation is at %d", c.Version, rel.Version())
	}
}

// TestPartitionShardCountsSameGroups: k-means is a pure function of the
// features, τ and the seed, so every shard count of one grouping has the
// same groups and medoids, each in its own cached Partitioning.
func TestPartitionShardCountsSameGroups(t *testing.T) {
	rel := partRelation(t, 40)
	spec := PartitionSpec{Features: []string{"v"}, GroupSize: 10, Seed: 3}
	var parts []*Partitioning
	for _, shards := range []int{1, 2, 4} {
		spec.Shards = shards
		before := DeltaStats().PartitionsRebuilt
		p, err := rel.Partition(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := DeltaStats().PartitionsRebuilt - before; got != 1 {
			t.Fatalf("shards=%d: PartitionsRebuilt rose by %d, want 1", shards, got)
		}
		if p.NumShards() != shards {
			t.Fatalf("shards = %d, want %d", p.NumShards(), shards)
		}
		again, err := rel.Partition(spec)
		if err != nil {
			t.Fatal(err)
		}
		if again != p {
			t.Fatalf("shards=%d: a repeated spec missed the cache", shards)
		}
		if DeltaStats().PartitionsRebuilt != before+1 {
			t.Fatalf("shards=%d: a cache hit counted as a build", shards)
		}
		parts = append(parts, p)
	}
	ref := parts[0]
	for _, p := range parts[1:] {
		if p == ref {
			t.Fatal("different shard counts shared one Partitioning")
		}
		if !reflect.DeepEqual(p.GroupOf, ref.GroupOf) || !reflect.DeepEqual(p.Groups, ref.Groups) ||
			!reflect.DeepEqual(p.Medoids, ref.Medoids) {
			t.Fatalf("%d shards grouped differently from 1 shard", p.NumShards())
		}
	}
}

func TestPartitionDeterministicAcrossRelations(t *testing.T) {
	// Same data, two relation instances: identical partitionings.
	mk := func() *Relation {
		col := make([]float64, 30)
		s := rng.NewStream(3)
		for i := range col {
			col[i] = s.Float64()
		}
		rel := New("r", 30)
		if err := rel.AddDet("v", col); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	spec := PartitionSpec{Features: []string{"v"}, GroupSize: 10, Seed: 7, Shards: 3}
	a, err := mk().Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.GroupOf {
		if a.GroupOf[i] != b.GroupOf[i] || a.ShardOf[i] != b.ShardOf[i] {
			t.Fatal("partitioning not deterministic for fixed seed")
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	empty := New("e", 0)
	if p, err := empty.Partition(PartitionSpec{}); err != nil || len(p.Groups) != 0 {
		t.Fatalf("empty relation: p=%+v err=%v", p, err)
	}
	rel := New("r", 3)
	if err := rel.AddDet("v", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p, err := rel.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 {
		t.Fatalf("got %d groups, want 1 (τ larger than n)", len(p.Groups))
	}
	if p.NumShards() != 1 {
		t.Fatalf("shards not clamped to group count: %d", p.NumShards())
	}
	// Constant feature column: still valid (span guard).
	flat := New("f", 4)
	if err := flat.AddDet("v", []float64{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	p2, err := flat.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, p2, 4)
	// Unknown feature and missing features error cleanly.
	if _, err := rel.Partition(PartitionSpec{Features: []string{"nope"}}); err == nil {
		t.Fatal("unknown feature column accepted")
	}
	if _, err := rel.Partition(PartitionSpec{}); err == nil {
		t.Fatal("k-means with no features accepted")
	}
	// Negative sizes (unvalidated client input) take defaults, not panics.
	p3, err := rel.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: -5, Shards: -2})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, p3, 3)
}

func TestShardViewPreservesSubstreams(t *testing.T) {
	n := 24
	rel := New("r", n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 6)
	}
	if err := rel.AddDet("v", vals); err != nil {
		t.Fatal(err)
	}
	dists := make([]dist.Dist, n)
	for i := range dists {
		dists[i] = dist.Normal{Mu: float64(i), Sigma: 1}
	}
	if err := rel.AddStoch("g", &IndependentVG{AttrID: 1, Dists: dists}); err != nil {
		t.Fatal(err)
	}
	p, err := rel.Partition(PartitionSpec{Features: []string{"v"}, GroupSize: 4, Seed: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(11)
	for s := 0; s < p.NumShards(); s++ {
		shard, err := rel.Select(func(t int) bool { return p.ShardOf[t] == s })
		if err != nil {
			t.Fatal(err)
		}
		want := p.ShardTuples(s)
		if shard.N() != len(want) {
			t.Fatalf("shard %d has %d tuples, want %d", s, shard.N(), len(want))
		}
		for row := 0; row < shard.N(); row++ {
			base := shard.OrigIndex(row)
			if p.ShardOf[base] != s {
				t.Fatalf("shard %d row %d maps to tuple %d of shard %d", s, row, base, p.ShardOf[base])
			}
			// Substream identity: the view realizes exactly the base tuple's
			// values.
			got, err := shard.Value(src, "g", row, 3)
			if err != nil {
				t.Fatal(err)
			}
			wantV, err := rel.Value(src, "g", base, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantV {
				t.Fatalf("shard view changed realization: %v vs %v", got, wantV)
			}
		}
	}
}
