package engine

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"spq/client"
	"spq/internal/sketch"
)

func TestResultCacheHitOnIdenticalRequest(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil)

	first, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if first.ResultCacheHit {
		t.Fatal("first query reported a result-cache hit")
	}

	// Identical (query, options, seeds): served from the cache, down to a
	// trivially reformatted query text (the key is the canonical statement).
	second, err := e.Query(context.Background(), Request{Query: "  " + testQuery + "\n", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultCacheHit {
		t.Fatal("identical request missed the result cache")
	}
	if second.CacheHit {
		t.Fatal("result-cache hit claimed a plan-cache hit (no planning ran)")
	}
	if math.Float64bits(second.Objective) != math.Float64bits(first.Objective) {
		t.Fatalf("cached result changed the answer: %v vs %v", second.Objective, first.Objective)
	}
	for i := range first.X {
		if second.X[i] != first.X[i] {
			t.Fatalf("cached package diverged at %d", i)
		}
	}

	st := e.Stats()
	if st.ResultCacheHits != 1 || st.ResultCacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 result hit, 1 miss", st)
	}
	if st.ResultCacheLen != 1 {
		t.Fatalf("result cache holds %d entries, want 1", st.ResultCacheLen)
	}
}

func TestResultCacheMissOnDifferingOptions(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil)

	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatal(err)
	}

	// Different optimization seed: a different scenario stream, so a
	// different deterministic evaluation → must not share the entry.
	seeded := smallCoreOptions()
	seeded.Seed = 99
	res, err := e.Query(context.Background(), Request{Query: testQuery, Options: seeded})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCacheHit {
		t.Fatal("request with a different seed hit the result cache")
	}

	// Different validation seed too.
	vseeded := smallCoreOptions()
	vseeded.ValidationSeed = 1234
	res, err = e.Query(context.Background(), Request{Query: testQuery, Options: vseeded})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCacheHit {
		t.Fatal("request with a different validation seed hit the result cache")
	}

	// A different method is a different computation.
	res, err = e.Query(context.Background(), Request{Query: testQuery, Method: "naive", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCacheHit {
		t.Fatal("naive request hit the summarysearch entry")
	}

	// Parallelism is NOT part of the key: parallel evaluation is
	// bit-identical, so a different worker count must share the entry.
	par := smallCoreOptions()
	par.Parallelism = 2
	res, err = e.Query(context.Background(), Request{Query: testQuery, Options: par})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultCacheHit {
		t.Fatal("request differing only in parallelism missed the result cache")
	}

	// The default method and its explicit name are one computation.
	res, err = e.Query(context.Background(), Request{Query: testQuery, Method: "summarysearch", Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultCacheHit {
		t.Fatal("explicit \"summarysearch\" missed the default-method entry")
	}

	if st := e.Stats(); st.ResultCacheHits != 2 || st.ResultCacheMisses != 4 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

func TestResultCacheInvalidatedByRelationVersion(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil)

	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatal(err)
	}

	// Bump the relation version (same data, so the solve is comparable):
	// the cached result must die with the version it was computed against.
	rel, _ := cat.Table("stocks")
	means, err := rel.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.SetMeans("gain", append([]float64(nil), means...)); err != nil {
		t.Fatal(err)
	}

	res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCacheHit {
		t.Fatal("result survived a relation version bump")
	}
	if st := e.Stats(); st.ResultCacheHits != 0 || st.ResultCacheMisses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})
	for i := 0; i < 2; i++ {
		res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if res.ResultCacheHit {
			t.Fatal("disabled result cache produced a hit")
		}
	}
	if st := e.Stats(); st.ResultCacheHits != 0 || st.ResultCacheMisses != 0 || st.ResultCacheLen != 0 {
		t.Fatalf("disabled cache counted: %+v", st)
	}
}

func TestResultCacheSketchMethod(t *testing.T) {
	cat := newCatalog(t, 80)
	e := New(cat, nil)
	req := Request{
		Query:   testQuery,
		Method:  "sketch",
		Options: smallCoreOptions(),
		Sketch:  &sketch.Options{GroupSize: 8, MaxCandidates: 32, Shards: 2, Seed: 5},
	}
	first, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sketch == nil {
		t.Fatal("sketch query returned no sketch stats")
	}
	second, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultCacheHit {
		t.Fatal("identical sketch request missed the result cache")
	}
	if second.Sketch == nil || second.Sketch.Shards != first.Sketch.Shards {
		t.Fatal("cached sketch result lost its stats")
	}
	// Different shard count proposes different candidates: its own entry.
	other := req
	other.Sketch = &sketch.Options{GroupSize: 8, MaxCandidates: 32, Shards: 1, Seed: 5}
	res, err := e.Query(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCacheHit {
		t.Fatal("different shard count shared a result entry")
	}
	st := e.Stats()
	if st.SketchQueries != 2 {
		t.Fatalf("sketch queries = %d, want 2 (cache hit runs no pipeline)", st.SketchQueries)
	}
	if st.ShardSolves != 3 {
		t.Fatalf("shard solves = %d, want 2 + 1", st.ShardSolves)
	}
}

// TestResultCacheConcurrent hammers one cached entry from many goroutines,
// half of them through Engine.Query and half through Submit, whose inline
// answers render the entry's package concurrently; under -race this is the
// data-race check for the result cache + admission combination the
// acceptance criteria name.
func TestResultCacheConcurrent(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{MaxInFlight: 4, Parallelism: 2})

	ref, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	refPkg := packageOf(ref.X, ref.Rel)

	var wg sync.WaitGroup
	errs := make([]error, 16)
	objs := make([]float64, 16)
	pkgs := make([][]client.PackageTuple, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := smallCoreOptions()
			if g%4 == 3 {
				opts.Seed = uint64(100 + g) // sprinkle misses between hits
			}
			req := Request{Query: testQuery, Options: opts}
			if g%2 == 0 {
				res, err := e.Query(context.Background(), req)
				if err != nil {
					errs[g] = err
					return
				}
				objs[g] = res.Objective
				return
			}
			j, err := e.Submit(req)
			if err != nil {
				errs[g] = err
				return
			}
			<-j.Done()
			snap := j.Snapshot(0)
			if snap.Result == nil {
				errs[g] = snap.Error
				return
			}
			objs[g], pkgs[g] = snap.Result.Objective, snap.Result.Package
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 0; g < 16; g++ {
		if g%4 != 3 && objs[g] != ref.Objective {
			t.Fatalf("goroutine %d: cached objective diverged: %v vs %v", g, objs[g], ref.Objective)
		}
		if g%4 == 1 && !reflect.DeepEqual(pkgs[g], refPkg) {
			t.Fatalf("goroutine %d: cached package diverged: %v vs %v", g, pkgs[g], refPkg)
		}
	}
	if st := e.Stats(); st.ResultCacheHits < 12 {
		t.Fatalf("result-cache hits = %d, want ≥ 12", st.ResultCacheHits)
	}
}
