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
	// Shards cover every group exactly once, in contiguous runs, and a
	// group of shard s holds only tuples t with t mod S = s.
	shards := p.NumShards()
	next := 0
	for s, groups := range p.ShardGroups {
		for _, g := range groups {
			if g != next {
				t.Fatalf("shard %d holds group %d, want contiguous run at %d", s, g, next)
			}
			next++
			for _, tup := range p.Groups[g] {
				if tup%shards != s {
					t.Fatalf("group %d of shard %d holds tuple %d, which is dealt to shard %d", g, s, tup, tup%shards)
				}
			}
		}
	}
	if next != p.NumGroups() {
		t.Fatalf("shards cover %d groups, want %d", next, p.NumGroups())
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

// TestPartitionShardsClusterAlone: one shard is kmeansGroups over every
// tuple, and S shards are S separate clusterings of the tuples i mod S = s,
// each in its own cached Partitioning.
func TestPartitionShardsClusterAlone(t *testing.T) {
	const n = 40
	rel := partRelation(t, n)
	spec := PartitionSpec{Features: []string{"v"}, GroupSize: 10, Seed: 3}
	col, err := rel.Det("v")
	if err != nil {
		t.Fatal(err)
	}
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
		checkCover(t, p, n)
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
		// Shard s, written out: k-means over its own tuples, local index j
		// standing for tuple s + j·shards.
		var groups [][]int
		var medoids []int
		for s := range shards {
			var sub []float64
			for tup := s; tup < n; tup += shards {
				sub = append(sub, col[tup])
			}
			_, g, m := kmeansGroups([][]float64{sub}, len(sub), spec.GroupSize, kmeansIters, spec.Seed)
			for _, members := range g {
				global := make([]int, len(members))
				for j, local := range members {
					global[j] = s + local*shards
				}
				groups = append(groups, global)
			}
			for _, local := range m {
				medoids = append(medoids, s+local*shards)
			}
		}
		if !reflect.DeepEqual(p.Groups, groups) || !reflect.DeepEqual(p.Medoids, medoids) {
			t.Fatalf("%d shards: groups %v medoids %v, want %v and %v", shards, p.Groups, p.Medoids, groups, medoids)
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
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partitioning not deterministic for fixed seed")
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
		t.Fatalf("shards not clamped to ⌈n/τ⌉: %d", p.NumShards())
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
	shards := p.NumShards()
	for s := range shards {
		shard, err := rel.Select(func(t int) bool { return t%shards == s })
		if err != nil {
			t.Fatal(err)
		}
		if want := (n - s + shards - 1) / shards; shard.N() != want {
			t.Fatalf("shard %d has %d tuples, want %d", s, shard.N(), want)
		}
		for row := 0; row < shard.N(); row++ {
			base := shard.OrigIndex(row)
			if base != s+row*shards {
				t.Fatalf("shard %d row %d maps to tuple %d, want %d", s, row, base, s+row*shards)
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
