package relation

import (
	"math"
	"sync"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

// rowCacheRuns are the scenario lists the row-cache tests realize: full,
// short and single-scenario runs, two that start together, and a list that
// is not a run (read past the cache).
var rowCacheRuns = [][]int{scenRun(0, 100), scenRun(0, 256), scenRun(256, 44), scenRun(512, 1), {3, 1, 2}}

func scenRun(first, n int) []int {
	scens := make([]int, n)
	for k := range scens {
		scens[k] = first + k
	}
	return scens
}

// rowCacheRelation has every VG shape the paper's workloads realize:
// uniform choices among integrated sources (TPC-H), Normals and shifted
// Pareto tails (Galaxy), grouped GBM paths of several horizons (Portfolio),
// next to a deterministic column. broadcast makes every stochastic
// attribute one distribution for all tuples, so the relation takes appends.
func rowCacheRelation(t *testing.T, n int, broadcast bool) *Relation {
	t.Helper()
	r := New("rows", n)
	price := make([]float64, n)
	choice := make([]dist.Dist, n)
	normal := make([]dist.Dist, n)
	pareto := make([]dist.Dist, n)
	for i := range price {
		price[i] = float64(10 + i)
		choice[i] = dist.UniformChoice{Values: []float64{float64(i), float64(2 * i), -1, 0.5}}
		normal[i] = dist.Normal{Mu: float64(i), Sigma: 1 + float64(i%3)}
		pareto[i] = dist.Shifted{Off: float64(i), D: dist.Pareto{Sigma: 1 + float64(i%4), Alpha: 1}}
	}
	if broadcast {
		choice, normal, pareto = choice[:1], normal[:1], pareto[:1]
	}
	if err := r.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	for k, a := range []struct {
		name  string
		dists []dist.Dist
	}{{"choice", choice}, {"normal", normal}, {"pareto", pareto}} {
		if err := r.AddStoch(a.name, &IndependentVG{AttrID: uint64(k + 1), Dists: a.dists}); err != nil {
			t.Fatal(err)
		}
	}
	if broadcast {
		return r
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i / 4
	}
	gbm := &GroupedVG{AttrID: 4, Group: group, Eval: func(s *rng.Stream, tuple int) float64 {
		g := dist.GBM{S0: 50 + float64(group[tuple]), Mu: 0.05, Sigma: 0.4, Dt: 1.0 / 252}
		var buf [5]float64
		path := buf[:1+tuple%5]
		g.Path(s, path)
		return path[len(path)-1]
	}}
	if err := r.AddStoch("path", gbm); err != nil {
		t.Fatal(err)
	}
	return r
}

// assertCachedMatchValues realizes every attribute of r for every tuple
// over rowCacheRuns through c, twice, under two sources, and checks both
// against Attr.Values bit for bit; the second read of a run must be a hit.
func assertCachedMatchValues(t *testing.T, label string, c *rowCache, r *Relation) {
	t.Helper()
	for _, src := range []rng.Source{rng.NewSource(9), rng.NewSource(10)} {
		assertCachedMatchValuesFrom(t, label, c, r, src)
	}
}

func assertCachedMatchValuesFrom(t *testing.T, label string, c *rowCache, r *Relation, src rng.Source) {
	t.Helper()
	names := append(r.DetNames(), r.StochNames()...)
	want := make([]float64, rowChunk)
	got := make([]float64, rowChunk+1)
	for _, name := range names {
		a, err := r.Attr(name)
		if err != nil {
			t.Fatal(err)
		}
		for tuple := 0; tuple < r.N(); tuple++ {
			for _, scens := range rowCacheRuns {
				if err := a.Values(src, tuple, scens, want); err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got[len(scens)] = 12345 // must not be written
					hit, err := c.values(a, src, tuple, scens, got)
					if err != nil {
						t.Fatal(err)
					}
					for k := range scens {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s: %s tuple %d scenario %d (pass %d, hit %t): cached %v, Values %v",
								label, name, tuple, scens[k], pass, hit, got[k], want[k])
						}
					}
					if got[len(scens)] != 12345 {
						t.Fatalf("%s: %s wrote past the run", label, name)
					}
					if cacheable := a.Stochastic() && isRun(scens); pass == 1 && hit != cacheable {
						t.Fatalf("%s: %s tuple %d: second read hit=%t, want %t", label, name, tuple, hit, cacheable)
					}
				}
			}
		}
		// The process-wide cache answers the same.
		if _, err := a.CachedValues(src, 1, rowCacheRuns[1], got); err != nil {
			t.Fatal(err)
		}
		if err := a.Values(src, 1, rowCacheRuns[1], want); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: %s: shared cache %v, Values %v", label, name, got[k], want[k])
			}
		}
	}
}

// TestRowCacheMatchesValues: rows served through the row cache equal
// Attr.Values bit for bit on views, views of views and snapshots, and
// across a delta sequence of Set, SetVG, Delete and a broadcast Append.
// One cache serves every shape and state, so rows realized before a delta
// are served after it wherever their keys still match: a full-size cache
// keeps every row the test realizes, a small one evicts along the way.
func TestRowCacheMatchesValues(t *testing.T) {
	for _, slots := range []int{64, RowCacheSlots} {
		testRowCacheMatchesValues(t, newRowCache(slots))
	}
}

func testRowCacheMatchesValues(t *testing.T, c *rowCache) {
	base := rowCacheRelation(t, 24, false)
	view := mustSelect(t, base, 1, 2, 5, 6, 7, 11, 20, 23)
	for _, sh := range []struct {
		label string
		r     *Relation
	}{
		{"base", base},
		{"view", view},
		{"view of view", mustSelect(t, view, 0, 3, 5, 7)},
		{"snapshot", base.Snapshot()},
		{"view of snapshot", mustSelect(t, base.Snapshot(), 4, 9, 10)},
	} {
		assertCachedMatchValues(t, sh.label, c, sh.r)
	}

	mut := rowCacheRelation(t, 24, true)
	assertCachedMatchValues(t, "broadcast", c, mut)
	steps := []struct {
		label string
		delta func() *Delta
	}{
		{"set", func() *Delta { return &Delta{Set: map[string]map[int]float64{"price": {3: -1}}} }},
		{"delete", func() *Delta { return &Delta{Delete: []int{0, 5, 6}} }},
		{"setvg", func() *Delta {
			return &Delta{SetVG: map[string]VGUpdate{"normal": {VG: &IndependentVG{AttrID: 2, Dists: []dist.Dist{dist.Normal{Mu: 7, Sigma: 3}}}}}}
		}},
		{"append", func() *Delta {
			return &Delta{Append: []map[string]float64{{"price": 1}, {"price": 2}}}
		}},
		{"delete after append", func() *Delta { return &Delta{Delete: []int{1, 22}} }},
	}
	for _, st := range steps {
		before := mut.Snapshot()
		if _, err := mut.ApplyDelta(st.delta()); err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		assertCachedMatchValues(t, st.label, c, mut)
		assertCachedMatchValues(t, st.label+": snapshot before", c, before)
		assertCachedMatchValues(t, st.label+": view", c, mustSelect(t, mut, 0, 2, mut.N()-1))
	}
}

// TestRowCacheNeverServesReplacedVG: once SetVG replaces an attribute's VG,
// no row of the old VG is served for it, though a snapshot taken before
// keeps reading the old rows; a cache smaller than its working set keeps
// serving correct rows while it evicts; neither a hit nor a miss that
// evicts allocates; and concurrent readers of overlapping keys agree.
func TestRowCacheNeverServesReplacedVG(t *testing.T) {
	const slots = 8
	c := newRowCache(slots)
	src := rng.NewSource(4)
	scens := scenRun(0, 200)
	r := rowCacheRelation(t, 64, true)
	oldSnap := r.Snapshot()
	oldAttr, err := oldSnap.Attr("normal")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(scens))
	want := make([]float64, len(scens))
	check := func(label string, a Attr, tuple int) bool {
		t.Helper()
		hit, err := c.values(a, src, tuple, scens, out)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Values(src, tuple, scens, want); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s tuple %d scenario %d: cached %v, Values %v", label, tuple, k, out[k], want[k])
			}
		}
		return hit
	}
	for tuple := 0; tuple < 4; tuple++ {
		check("old", oldAttr, tuple)
	}
	if _, err := r.ApplyDelta(&Delta{SetVG: map[string]VGUpdate{"normal": {VG: &IndependentVG{AttrID: 2, Dists: []dist.Dist{dist.Normal{Mu: 100, Sigma: 1}}}}}}); err != nil {
		t.Fatal(err)
	}
	newAttr, err := r.Attr("normal")
	if err != nil {
		t.Fatal(err)
	}
	for tuple := 0; tuple < 4; tuple++ {
		if check("replaced", newAttr, tuple) {
			t.Fatalf("tuple %d: the replaced VG's first read hit the old VG's row", tuple)
		}
		if !check("old snapshot", oldAttr, tuple) {
			t.Fatalf("tuple %d: the snapshot's row was evicted by %d inserts into %d slots", tuple, 4, slots)
		}
	}

	// Three times more keys than slots, cycled: every read evicts.
	for pass := 0; pass < 3; pass++ {
		for tuple := 8; tuple < 8+3*slots; tuple++ {
			for _, a := range []Attr{oldAttr, newAttr} {
				if check("cycled", a, tuple) {
					t.Fatalf("pass %d tuple %d: a cyclic scan over %d keys hit in %d slots", pass, tuple, 6*slots, slots)
				}
			}
		}
	}

	k := 0
	if n := testing.AllocsPerRun(100, func() {
		k++
		if hit, _ := c.values(newAttr, src, 8+k%(3*slots), scens, out); hit {
			t.Fatal("cyclic read hit")
		}
	}); n != 0 {
		t.Fatalf("a miss that evicts allocates %v objects, want 0", n)
	}
	check("repeated", newAttr, 40)
	if n := testing.AllocsPerRun(100, func() {
		if hit, _ := c.values(newAttr, src, 40, scens, out); !hit {
			t.Fatal("repeated read missed")
		}
	}); n != 0 {
		t.Fatalf("a hit allocates %v objects, want 0", n)
	}

	// Concurrent readers over overlapping keys, more keys than slots, each
	// walking them in its own order.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, len(scens))
			want := make([]float64, len(scens))
			for i := 0; i < 200; i++ {
				a := []Attr{oldAttr, newAttr}[(i+g)%2]
				tuple := (i*(g+1) + g) % (2 * slots)
				if _, err := c.values(a, src, tuple, scens, out); err != nil {
					t.Error(err)
					return
				}
				if err := a.Values(src, tuple, scens, want); err != nil {
					t.Error(err)
					return
				}
				for k := range want {
					if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
						t.Errorf("reader %d: tuple %d scenario %d: cached %v, Values %v", g, tuple, k, out[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
