package relation

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

// realizeScenario realizes attr for every tuple of rel in one scenario, one
// Value at a time.
func realizeScenario(t *testing.T, rel *Relation, src rng.Source, attr string, scen int) []float64 {
	t.Helper()
	out := make([]float64, rel.N())
	for i := range out {
		v, err := rel.Value(src, attr, i, scen)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// deltaRelation builds a mutable base relation with one deterministic
// column, one broadcast stochastic attribute, and precomputed means.
func deltaRelation(t *testing.T, n int) *Relation {
	t.Helper()
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i)
	}
	rel := New("r", n)
	if err := rel.AddDet("price", col); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &IndependentVG{AttrID: 1, Dists: []dist.Dist{dist.Normal{Mu: 1, Sigma: 0.1}}}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 10)
	return rel
}

func TestApplyDeltaPatchAndSnapshotIsolation(t *testing.T) {
	rel := deltaRelation(t, 10)
	v0 := rel.Version()
	snap := rel.Snapshot()
	if snap2 := rel.Snapshot(); snap2 != snap {
		t.Fatal("Snapshot not memoized between mutations")
	}

	cs, err := rel.ApplyDelta(&Delta{Set: map[string]map[int]float64{"price": {3: 99, 7: 88}}})
	if err != nil {
		t.Fatal(err)
	}
	if cs.From != v0 || cs.To != rel.Version() || cs.To != v0+1 {
		t.Fatalf("change set versions %d→%d, relation at %d (was %d)", cs.From, cs.To, rel.Version(), v0)
	}
	if len(cs.Cols) != 1 || cs.Cols[0] != "price" {
		t.Fatalf("cols = %v", cs.Cols)
	}
	if len(cs.Tuples) != 2 || cs.Tuples[0] != 3 || cs.Tuples[1] != 7 {
		t.Fatalf("tuples = %v", cs.Tuples)
	}
	if cs.MembershipChanged() {
		t.Fatal("pure patch must not report membership change")
	}

	// The base sees the new values; the pre-delta snapshot still reads the
	// old ones (copy-on-write).
	if v, _ := rel.DetValue("price", 3); v != 99 {
		t.Fatalf("base price[3] = %v, want 99", v)
	}
	if v, _ := snap.DetValue("price", 3); v != 3 {
		t.Fatalf("snapshot price[3] = %v, want 3 (pre-delta)", v)
	}
	if snap.Version() != v0 {
		t.Fatalf("snapshot version moved to %d", snap.Version())
	}
	if snap.Version() == rel.Version() {
		t.Fatal("snapshot should lag the base after the delta")
	}
	if rel.Snapshot() == snap {
		t.Fatal("post-delta Snapshot returned the stale snapshot")
	}

	// Stochastic realizations of the snapshot are unchanged: substream
	// identity survives.
	src := rng.NewSource(42)
	a := realizeScenario(t, snap, src, "gain", 0)
	b := realizeScenario(t, rel.Snapshot(), src, "gain", 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gain realization diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestApplyDeltaValidation(t *testing.T) {
	rel := deltaRelation(t, 4)
	if _, err := rel.ApplyDelta(&Delta{Set: map[string]map[int]float64{"nope": {0: 1}}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := rel.ApplyDelta(&Delta{Set: map[string]map[int]float64{"price": {9: 1}}}); err == nil {
		t.Fatal("out-of-range tuple accepted")
	}
	if _, err := rel.ApplyDelta(&Delta{Delete: []int{1, 1}}); err == nil {
		t.Fatal("duplicate delete accepted")
	}
	if _, err := rel.ApplyDelta(&Delta{Append: []map[string]float64{{"wrong": 1}}}); err == nil {
		t.Fatal("append row missing a column accepted")
	}
	if _, err := rel.Snapshot().ApplyDelta(&Delta{}); err == nil {
		t.Fatal("ApplyDelta on a snapshot accepted")
	}
	// A delta that changes nothing must not bump the version.
	v := rel.Version()
	cs, err := rel.ApplyDelta(&Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() || rel.Version() != v {
		t.Fatalf("empty delta bumped version %d→%d", v, rel.Version())
	}
}

func TestApplyDeltaDeleteAppend(t *testing.T) {
	rel := deltaRelation(t, 6)
	snap := rel.Snapshot()

	// Record pre-delta realizations of the survivors.
	src := rng.NewSource(9)
	pre := realizeScenario(t, snap, src, "gain", 3)

	cs, err := rel.ApplyDelta(&Delta{
		Delete: []int{1, 4},
		Append: []map[string]float64{{"price": 100}, {"price": 101}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Deleted || cs.Appended != 2 || !cs.MembershipChanged() {
		t.Fatalf("change set = %+v", cs)
	}
	if rel.N() != 6 {
		t.Fatalf("n = %d, want 6 (6 - 2 + 2)", rel.N())
	}
	// Survivors keep original indices: 0,2,3,5 then two appended tuples.
	wantOrig := []int{0, 2, 3, 5, 6, 7}
	for i, w := range wantOrig {
		if rel.OrigIndex(i) != w {
			t.Fatalf("OrigIndex(%d) = %d, want %d", i, rel.OrigIndex(i), w)
		}
	}
	if v, _ := rel.DetValue("price", 4); v != 100 {
		t.Fatalf("appended price = %v, want 100", v)
	}
	// Survivor substream identity: tuple 2 (was 3) realizes identically.
	post := realizeScenario(t, rel.Snapshot(), src, "gain", 3)
	if post[2] != pre[3] || post[1] != pre[2] {
		t.Fatalf("survivor realization changed: %v vs pre %v", post, pre)
	}
	// Means extended for the appended tuples via the closed form.
	m, err := rel.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || m[4] != 1 || m[5] != 1 {
		t.Fatalf("means = %v", m)
	}
	// The pre-delta snapshot is untouched.
	if snap.N() != 6 || snap.OrigIndex(4) != 4 {
		t.Fatal("snapshot membership changed")
	}
}

func TestChangesMergesAndTrims(t *testing.T) {
	rel := deltaRelation(t, 8)
	v0 := rel.Version()
	mustDelta := func(d *Delta) {
		t.Helper()
		if _, err := rel.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	mustDelta(&Delta{Set: map[string]map[int]float64{"price": {1: 10}}})
	mustDelta(&Delta{Set: map[string]map[int]float64{"price": {2: 20}}})

	cs, ok := rel.Changes(v0)
	if !ok {
		t.Fatal("Changes unavailable")
	}
	if cs.From != v0 || cs.To != rel.Version() {
		t.Fatalf("merged covers %d→%d", cs.From, cs.To)
	}
	if len(cs.Tuples) != 2 || cs.Tuples[0] != 1 || cs.Tuples[1] != 2 {
		t.Fatalf("merged tuples = %v", cs.Tuples)
	}
	// Same-version query returns an empty set.
	cs, ok = rel.Changes(rel.Version())
	if !ok || !cs.Empty() {
		t.Fatalf("same-version Changes = %+v, %v", cs, ok)
	}
	// A wholesale mutation severs the history.
	if err := rel.SetMeans("gain", make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if _, ok := rel.Changes(v0); ok {
		t.Fatal("Changes available across a wholesale mutation")
	}
	// And a trimmed log severs older versions: one delta more than the log
	// holds puts vw just past it, and the oldest version it holds stays
	// available.
	vw := rel.Version()
	for k := 0; k <= deltaLogCap; k++ {
		mustDelta(&Delta{Set: map[string]map[int]float64{"price": {0: float64(k)}}})
	}
	if _, ok := rel.Changes(vw); ok {
		t.Fatal("Changes available past the trimmed log")
	}
	if _, ok := rel.Changes(rel.Version() - deltaLogCap); !ok {
		t.Fatal("Changes unavailable within the log window")
	}
}

func TestPartitionDeltaRetainAndPatch(t *testing.T) {
	n := 512
	col := make([]float64, n)
	other := make([]float64, n)
	for i := range col {
		col[i] = float64(i%16) + 20*float64(i/(n/4)) // 4 well-separated bands
		other[i] = float64(i)
	}
	rel := New("r", n)
	if err := rel.AddDet("v", col); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("w", other); err != nil {
		t.Fatal(err)
	}
	spec := PartitionSpec{Features: []string{"v"}, GroupSize: 32, Shards: 4}

	s0 := rel.Snapshot()
	p0, err := s0.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Delta touching a non-feature column: the partitioning is retained
	// (rebased), not rebuilt.
	before := DeltaStats()
	if _, err := rel.ApplyDelta(&Delta{Set: map[string]map[int]float64{"w": {5: -1}}}); err != nil {
		t.Fatal(err)
	}
	s1 := rel.Snapshot()
	p1, err := s1.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	after := DeltaStats()
	if after.PartitionsRetained != before.PartitionsRetained+1 {
		t.Fatalf("expected a retained partitioning: %+v -> %+v", before, after)
	}
	if p1.Version != s1.Version() {
		t.Fatalf("rebased partitioning at version %d, want %d", p1.Version, s1.Version())
	}
	for i := range p0.GroupOf {
		if p0.GroupOf[i] != p1.GroupOf[i] {
			t.Fatal("retained partitioning changed group assignment")
		}
	}

	// Delta touching the feature column at a handful of tuples: only the
	// affected shards rebuild.
	k := 3 % p1.NumShards() // all touched tuples in one shard
	touched := map[int]float64{}
	for t2 := 0; t2 < n && len(touched) < 3; t2++ {
		if t2%p1.NumShards() == k {
			touched[t2] = col[t2] + 0.25
		}
	}
	before = DeltaStats()
	if _, err := rel.ApplyDelta(&Delta{Set: map[string]map[int]float64{"v": touched}}); err != nil {
		t.Fatal(err)
	}
	s2 := rel.Snapshot()
	p2, err := s2.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	after = DeltaStats()
	if after.PartitionsPatched != before.PartitionsPatched+1 {
		t.Fatalf("expected a patched partitioning: %+v -> %+v", before, after)
	}
	if got := after.ShardsRebuilt - before.ShardsRebuilt; got != 1 {
		t.Fatalf("rebuilt %d shards, want exactly the 1 affected", got)
	}
	if got := after.ShardsRetained - before.ShardsRetained; got != 3 {
		t.Fatalf("retained %d shards, want 3", got)
	}
	if p2.NumShards() != 4 {
		t.Fatalf("patched partitioning has %d shards", p2.NumShards())
	}
	// Unaffected shards keep their exact groups.
	for s := 0; s < 4; s++ {
		if s == k {
			continue
		}
		a, b := p1.ShardGroups[s], p2.ShardGroups[s]
		if len(a) != len(b) {
			t.Fatalf("unaffected shard %d group count changed", s)
		}
		for i := range a {
			ga, gb := p1.Groups[a[i]], p2.Groups[b[i]]
			if len(ga) != len(gb) {
				t.Fatalf("unaffected shard %d group %d size changed", s, i)
			}
			for j := range ga {
				if ga[j] != gb[j] {
					t.Fatalf("unaffected shard %d group %d member changed", s, i)
				}
			}
		}
	}
	// Every tuple is still covered exactly once.
	checkCover(t, p2, n)

	// An appended tuple i is dealt to shard i mod 4, and only that shard
	// rebuilds.
	before = DeltaStats()
	if _, err := rel.ApplyDelta(&Delta{Append: []map[string]float64{{"v": 0.5, "w": 999}}}); err != nil {
		t.Fatal(err)
	}
	s3 := rel.Snapshot()
	p3, err := s3.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	after = DeltaStats()
	if after.PartitionsPatched != before.PartitionsPatched+1 {
		t.Fatalf("expected a patched partitioning on append: %+v -> %+v", before, after)
	}
	if got := after.ShardsRebuilt - before.ShardsRebuilt; got != 1 {
		t.Fatalf("append rebuilt %d shards, want 1", got)
	}
	checkCover(t, p3, n+1)

	// Deletes force a full rebuild (the index space shifted).
	before = DeltaStats()
	if _, err := rel.ApplyDelta(&Delta{Delete: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Snapshot().Partition(spec); err != nil {
		t.Fatal(err)
	}
	after = DeltaStats()
	if after.PartitionsRebuilt != before.PartitionsRebuilt+1 {
		t.Fatalf("expected a full rebuild after delete: %+v -> %+v", before, after)
	}
}

// TestPartitionPatchEveryStrategy patches a 4-shard partitioning of k-means,
// the only grouping, through a feature Set and an Append and checks the
// result with checkCover, which includes the invariant that every group
// lies in the shard its tuples are dealt to.
func TestPartitionPatchEveryStrategy(t *testing.T) {
	t.Run("kmeans", func(t *testing.T) {
		n := 96
		rel := partRelation(t, n)
		spec := PartitionSpec{Features: []string{"v"}, GroupSize: 8, Shards: 4, Seed: 3}
		p0, err := rel.Partition(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkCover(t, p0, n)
		for i, d := range []*Delta{
			{Set: map[string]map[int]float64{"v": {5: 10.3, 70: 0.2}}},
			{Append: []map[string]float64{{"v": 0.15}, {"v": 10.6}}},
		} {
			before := DeltaStats()
			if _, err := rel.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			p, err := rel.Snapshot().Partition(spec)
			if err != nil {
				t.Fatal(err)
			}
			after := DeltaStats()
			if after.PartitionsPatched != before.PartitionsPatched+1 {
				t.Fatalf("delta %d did not patch the partitioning: %+v -> %+v", i, before, after)
			}
			checkCover(t, p, rel.N())
		}
	})
}

// TestPartitionIncrementalMatchesRebuild: after every delta of a random
// sequence (feature and non-feature Sets, Appends, Deletes, a SetVG of a
// feature), the partitioning carried forward from the last one equals that
// of a fresh relation holding the same values. A patch re-clusters exactly
// the shards holding touched or appended tuples; a rebase re-clusters none.
// Small relations make ⌈n/τ⌉ cross the shard count, so that path is walked
// too.
func TestPartitionIncrementalMatchesRebuild(t *testing.T) {
	gain := &IndependentVG{AttrID: 1, Dists: []dist.Dist{dist.Normal{Mu: 1, Sigma: 0.1}}}
	// fresh builds a relation from column values: v and the means of g are
	// the features, w is read by no partitioning.
	fresh := func(t *testing.T, v, w, means []float64) *Relation {
		t.Helper()
		rel := New("r", len(v))
		if err := rel.AddDet("v", v); err != nil {
			t.Fatal(err)
		}
		if err := rel.AddDet("w", w); err != nil {
			t.Fatal(err)
		}
		if err := rel.AddStoch("g", gain); err != nil {
			t.Fatal(err)
		}
		if err := rel.SetMeans("g", means); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	column := func(t *testing.T, rel *Relation, name string) []float64 {
		t.Helper()
		col, err := rel.Means(name) // det columns pass through
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), col...)
	}
	for _, size := range []struct{ n, tau int }{{120, 6}, {14, 5}} {
		for _, shards := range []int{1, 2, 3, 4} {
			for _, seed := range []uint64{1, 2} {
				s := rng.NewStream(rng.Mix(seed, uint64(shards), uint64(size.n)))
				draw := func(n int) []float64 {
					out := make([]float64, n)
					for i := range out {
						// Three bands, so k-means has clusters to find.
						out[i] = 10*float64(s.IntN(3)) + s.Float64()
					}
					return out
				}
				spec := PartitionSpec{Features: []string{"v", "g"}, GroupSize: size.tau, Shards: shards, Seed: seed}
				rel := fresh(t, draw(size.n), draw(size.n), draw(size.n))
				if _, err := rel.Partition(spec); err != nil {
					t.Fatal(err)
				}
				setVG := 7 + s.IntN(6) // the step that replaces g
				for step := 0; step < 16; step++ {
					n := rel.N()
					d := &Delta{}
					touched := map[int]bool{}
					cells := func(col string) {
						patch := map[int]float64{}
						for range 1 + s.IntN(4) {
							tup := s.IntN(n)
							patch[tup] = 10*float64(s.IntN(3)) + s.Float64()
							touched[tup] = true
						}
						if d.Set == nil {
							d.Set = map[string]map[int]float64{}
						}
						d.Set[col] = patch
					}
					kind := s.IntN(5)
					if step == setVG {
						kind = 5
					}
					switch kind {
					case 0: // feature Set
						cells("v")
					case 1: // non-feature Set
						cells("w")
					case 2: // both in one delta
						cells("v")
						cells("w")
					case 3:
						for range 1 + s.IntN(3) {
							d.Append = append(d.Append, map[string]float64{"v": draw(1)[0], "w": draw(1)[0]})
						}
					case 4:
						if n <= 2*size.tau {
							d.Append = []map[string]float64{{"v": draw(1)[0], "w": draw(1)[0]}}
							break
						}
						d.Delete = []int{s.IntN(n)}
					case 5:
						d.SetVG = map[string]VGUpdate{"g": {VG: gain, Means: draw(n)}}
					}
					prev, err := rel.Snapshot().Partition(spec)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rel.ApplyDelta(d); err != nil {
						t.Fatal(err)
					}
					snap := rel.Snapshot()
					before := DeltaStats()
					got, err := snap.Partition(spec)
					if err != nil {
						t.Fatal(err)
					}
					after := DeltaStats()
					want, err := fresh(t, column(t, snap, "v"), column(t, snap, "w"), column(t, snap, "g")).Partition(spec)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("n0=%d τ=%d shards=%d seed=%d step %d (%+v)", size.n, size.tau, shards, seed, step, d)
					norm := *want
					norm.Version = got.Version
					if !reflect.DeepEqual(got, &norm) {
						t.Fatalf("%s: carried-forward partitioning differs from a cold build", name)
					}
					checkCover(t, got, snap.N())

					// The work the carry-forward did.
					retained := after.PartitionsRetained - before.PartitionsRetained
					patched := after.PartitionsPatched - before.PartitionsPatched
					rebuilt := after.PartitionsRebuilt - before.PartitionsRebuilt
					shardsRebuilt := after.ShardsRebuilt - before.ShardsRebuilt
					switch {
					case len(d.Delete) > 0 || d.SetVG != nil || prev.NumShards() != got.NumShards():
						if rebuilt != 1 || patched != 0 || shardsRebuilt != 0 {
							t.Fatalf("%s: want a full rebuild, got %+v -> %+v", name, before, after)
						}
					case d.Set["v"] == nil && len(d.Append) == 0:
						if retained != 1 || shardsRebuilt != 0 {
							t.Fatalf("%s: want a rebase, got %+v -> %+v", name, before, after)
						}
					default:
						dirty := map[int]bool{}
						for tup := range touched {
							dirty[tup%got.NumShards()] = true
						}
						for tup := n; tup < snap.N(); tup++ {
							dirty[tup%got.NumShards()] = true
						}
						if patched != 1 || rebuilt != 0 || shardsRebuilt != int64(len(dirty)) {
							t.Fatalf("%s: want a patch of %d shards, got %+v -> %+v", name, len(dirty), before, after)
						}
						if kept := after.ShardsRetained - before.ShardsRetained; kept != int64(got.NumShards()-len(dirty)) {
							t.Fatalf("%s: retained %d shards, want %d", name, kept, got.NumShards()-len(dirty))
						}
					}
				}
			}
		}
	}
}

// TestSetVGOnCompactedBase: a VG that SetVG installs on a base a delete has
// already compacted reads the tuple indices of its day. Later deletes and
// appends remap it from there, so the attribute realizes the values, under
// the same row-cache key tuples, of a relation built directly from those
// tuples with that VG and given the same later deltas. The attribute SetVG
// did not touch keeps reading the original base indices.
func TestSetVGOnCompactedBase(t *testing.T) {
	perTuple := make([]dist.Dist, 8)
	for i := range perTuple {
		perTuple[i] = dist.Normal{Mu: float64(100 * i), Sigma: 1}
	}
	broadcast := []dist.Dist{dist.Normal{Mu: 5, Sigma: 2}}
	build := func(n int, vg VGFunc) *Relation {
		rel := New("r", n)
		col := make([]float64, n)
		if err := rel.AddDet("price", col); err != nil {
			t.Fatal(err)
		}
		if err := rel.AddStoch("gain", vg); err != nil {
			t.Fatal(err)
		}
		if err := rel.AddStoch("loss", &IndependentVG{AttrID: 2, Dists: broadcast}); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	apply := func(rel *Relation, ds ...*Delta) {
		for _, d := range ds {
			if _, err := rel.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows := func(a int) *Delta {
		rows := make([]map[string]float64, a)
		for k := range rows {
			rows[k] = map[string]float64{"price": 1}
		}
		return &Delta{Append: rows}
	}
	src := rng.NewSource(3)
	scens := scenRun(0, 300)
	compare := func(label string, got, want *Relation) {
		t.Helper()
		if got.N() != want.N() {
			t.Fatalf("%s: %d tuples, want %d", label, got.N(), want.N())
		}
		ga, err := got.Attr("gain")
		if err != nil {
			t.Fatal(err)
		}
		wa, err := want.Attr("gain")
		if err != nil {
			t.Fatal(err)
		}
		g, w := make([]float64, len(scens)), make([]float64, len(scens))
		for i := 0; i < got.N(); i++ {
			_, gt := innermost(ga.vg, i)
			_, wt := innermost(wa.vg, i)
			if gt != wt {
				t.Fatalf("%s: tuple %d has row-cache key tuple %d, want %d", label, i, gt, wt)
			}
			if err := ga.Values(src, i, scens, g); err != nil {
				t.Fatal(err)
			}
			if err := wa.Values(src, i, scens, w); err != nil {
				t.Fatal(err)
			}
			for k := range g {
				if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
					t.Fatalf("%s: tuple %d scenario %d realizes %v, want %v", label, i, k, g[k], w[k])
				}
			}
		}
	}

	// delete → SetVG → delete, with a VG of one distribution per tuple:
	// read through the base's indices it picks a wrong tuple's or none.
	rel := build(10, &IndependentVG{AttrID: 1, Dists: broadcast})
	base := rel.Snapshot()
	apply(rel, &Delta{Delete: []int{1, 4}},
		&Delta{SetVG: map[string]VGUpdate{"gain": {VG: &IndependentVG{AttrID: 9, Dists: perTuple}}}},
		&Delta{Delete: []int{2, 5}})
	direct := build(8, &IndependentVG{AttrID: 9, Dists: perTuple})
	apply(direct, &Delta{Delete: []int{2, 5}})
	compare("delete, SetVG, delete", rel, direct)
	// The untouched attribute still reads the original base tuples.
	for i := 0; i < rel.N(); i++ {
		for _, j := range []int{0, 17} {
			got, err := rel.Value(src, "loss", i, j)
			if err != nil {
				t.Fatal(err)
			}
			want, err := base.Value(src, "loss", rel.OrigIndex(i), j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("loss tuple %d (base %d) scenario %d: %v, want %v", i, rel.OrigIndex(i), j, got, want)
			}
		}
	}

	// delete → SetVG → append → delete → append, broadcast, so appends
	// draw fresh indices of the replaced VG's own index space.
	rel = build(10, &IndependentVG{AttrID: 1, Dists: broadcast})
	apply(rel, &Delta{Delete: []int{1, 4}},
		&Delta{SetVG: map[string]VGUpdate{"gain": {VG: &IndependentVG{AttrID: 9, Dists: broadcast}}}},
		appendRows(2), &Delta{Delete: []int{0, 9}}, appendRows(3))
	direct = build(8, &IndependentVG{AttrID: 9, Dists: broadcast})
	apply(direct, appendRows(2), &Delta{Delete: []int{0, 9}}, appendRows(3))
	compare("delete, SetVG, append, delete, append", rel, direct)
}
