package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"spq/client"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/translate"
	"spq/internal/workload"
)

// scaledVG is a VG from outside package relation that a delta's SetVG
// installs: k times another VG's values.
type scaledVG struct {
	inner relation.VGFunc
	k     float64
}

func (vg scaledVG) Value(src rng.Source, tuple, scenario int) float64 {
	return vg.k * vg.inner.Value(src, tuple, scenario)
}

func (vg scaledVG) ExactMean(tuple int) float64 { return vg.k * vg.inner.ExactMean(tuple) }

// validateRows validates x under a fresh trace and returns the verdict with
// the validate span's row_hits and row_misses.
func validateRows(t *testing.T, silp *translate.SILP, x []float64, o *Options) (val *Validation, hits, misses int) {
	t.Helper()
	tr := obs.NewTrace("", "test")
	val, err := Validate(obs.ContextWithSpan(context.Background(), tr.Root()), silp, x, o)
	tr.Root().End()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = spanRows(t, tr, "validate")
	return val, hits, misses
}

// probeRows probes silp's objective range under a fresh trace, as the first
// validation of a new plan does, and returns it with the probe span's
// row_hits and row_misses.
func probeRows(t *testing.T, silp *translate.SILP, o *Options) (lo, hi float64, hits, misses int) {
	t.Helper()
	tr := obs.NewTrace("", "test")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	lo, hi, err := newRunner(ctx, silp, o).probeObjectiveRange(ctx)
	tr.Root().End()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = spanRows(t, tr, "probe")
	return lo, hi, hits, misses
}

// spanRows returns the row_hits and row_misses of the one span called name.
func spanRows(t *testing.T, tr *obs.Trace, name string) (hits, misses int) {
	t.Helper()
	spans := 0
	tr.Data().Walk(func(d *client.TraceSpan) {
		if d.Name != name {
			return
		}
		spans++
		var err error
		if hits, err = strconv.Atoi(d.Attrs["row_hits"]); err != nil {
			t.Fatalf("%s row_hits %q: %v", name, d.Attrs["row_hits"], err)
		}
		if misses, err = strconv.Atoi(d.Attrs["row_misses"]); err != nil {
			t.Fatalf("%s row_misses %q: %v", name, d.Attrs["row_misses"], err)
		}
	})
	if spans != 1 {
		t.Fatalf("%d %s spans, want 1", spans, name)
	}
	return hits, misses
}

// TestValidateWarmRowsMatchCold: validation served from the process-wide row
// cache answers as validation from an empty one and as the per-value loop,
// bit for bit, on Portfolio (grouped GBM paths), Galaxy (shifted Pareto) and
// TPC-H (uniform choices, a probability objective) SILPs. Each relation
// takes a sequence of overlapping packages, validated at several worker
// counts, between deltas that patch a deterministic column, delete tuples
// and replace the constraint's VG. The cold side rebuilds the instance and
// replays the deltas for every call, so none of its rows can be cached.
func TestValidateWarmRowsMatchCold(t *testing.T) {
	cases := []struct {
		gen      func(workload.Config) *workload.Instance
		id, attr string
	}{
		{workload.Portfolio, "Q1", "gain"},
		{workload.Galaxy, "Q5", "petromag_r"},
		{workload.TPCH, "Q6", "quantity"},
	}
	for _, tc := range cases {
		cfg := workload.Config{N: 30, Seed: 1, MeansM: 200}
		deltas := []func(rel *relation.Relation) *relation.Delta{
			func(*relation.Relation) *relation.Delta { return nil },
			func(rel *relation.Relation) *relation.Delta {
				return &relation.Delta{Set: map[string]map[int]float64{rel.DetNames()[0]: {1: 3, 4: 5}}}
			},
			func(*relation.Relation) *relation.Delta { return &relation.Delta{Delete: []int{2, 7}} },
			func(rel *relation.Relation) *relation.Delta {
				return &relation.Delta{SetVG: map[string]relation.VGUpdate{tc.attr: {VG: scaledVG{mustVG(t, rel, tc.attr), 1.5}}}}
			},
			func(rel *relation.Relation) *relation.Delta {
				return &relation.Delta{Set: map[string]map[int]float64{rel.DetNames()[0]: {0: 1}}}
			},
		}
		instance := func(applied int) (*relation.Relation, string) {
			in := tc.gen(cfg)
			q, ok := in.QueryByID(tc.id)
			if !ok {
				t.Fatalf("no query %s", tc.id)
			}
			rel := in.Table(q.Table)
			for _, d := range deltas[:applied] {
				if delta := d(rel); delta != nil {
					if _, err := rel.ApplyDelta(delta); err != nil {
						t.Fatal(err)
					}
				}
			}
			return rel, q.SPaQL
		}
		label := tc.id + "/" + tc.attr
		warm, query := instance(0)
		for step, d := range deltas {
			if delta := d(warm); delta != nil {
				if _, err := warm.ApplyDelta(delta); err != nil {
					t.Fatal(err)
				}
			}
			silp := buildSILP(t, warm.Snapshot(), query)
			hits := 0
			for p := 0; p < 4; p++ {
				x := make([]float64, silp.N)
				for i := 3 * p; i < 3*p+6; i++ {
					x[i] = float64(1 + i%2)
				}
				o := smallOptions(5)
				o.ValidationM = 1000 // the last row chunk is short
				o.Parallelism = []int{1, 2, 8}[(step+p)%3]
				got, h, m := validateRows(t, silp, x, o)
				hits += h
				if h+m == 0 {
					t.Fatalf("%s step %d package %d: no rows realized", label, step, p)
				}

				coldRel, _ := instance(step + 1)
				co := *o
				co.Parallelism = 1
				cold, h, _ := validateRows(t, buildSILP(t, coldRel.Snapshot(), query), x, &co)
				if h != 0 {
					t.Fatalf("%s step %d package %d: a fresh instance hit %d cached rows", label, step, p, h)
				}
				assertSameValidation(t, label+" warm against cold", got, cold)
				assertSameValidation(t, label+" warm against the per-value loop", got, validateByValue(t, silp, x, o))
			}
			// Packages overlap, so every state but the first serves rows
			// from the cache, even right after SetVG.
			if step > 0 && hits == 0 {
				t.Fatalf("%s step %d: no row came from the cache", label, step)
			}
		}
	}
}

// TestValidateChunksIgnoreWorkers: the scenario chunks validation realizes,
// and with them the row cache's keys, do not depend on the worker count:
// validating one package again at any other worker count realizes nothing.
func TestValidateChunksIgnoreWorkers(t *testing.T) {
	rel := mutablePortfolio(t, 12)
	x := make([]float64, 12)
	x[1], x[5], x[6] = 1, 2, 1
	for _, m := range []int{100, 256, 3001} {
		var first *Validation
		for k, workers := range []int{1, 2, 3, 8} {
			o := smallOptions(2)
			o.ValidationM = m
			o.Parallelism = workers
			// A fresh SILP per call, so no verdict is memoised.
			val, hits, misses := validateRows(t, buildSILP(t, rel, warmQuery), x, o)
			if k == 0 {
				first = val
				continue
			}
			if misses != 0 || hits == 0 {
				t.Fatalf("M̂=%d workers=%d: %d rows realized, %d served", m, workers, misses, hits)
			}
			assertSameValidation(t, "workers", val, first)
		}
	}
}

// TestProbeRowsMatchRealizeLoop: the ε′ probe reading its rows through the
// process-wide row cache finds the per-value loop's range bit for bit, on
// Portfolio (grouped GBM paths), Galaxy (shifted Pareto) and TPC-H (uniform
// choices, the probability objective's inner function) SILPs over each
// state of a Set, Delete, SetVG and Set sequence, on the table and on a
// view of a view of it, at workers {1, 2, 8}. After the first probe of a
// SILP every row comes from the cache.
func TestProbeRowsMatchRealizeLoop(t *testing.T) {
	cases := []struct {
		gen      func(workload.Config) *workload.Instance
		id, attr string
	}{
		{workload.Portfolio, "Q1", "gain"},
		{workload.Galaxy, "Q5", "petromag_r"},
		{workload.TPCH, "Q6", "revenue"},
	}
	for _, tc := range cases {
		in := tc.gen(workload.Config{N: 30, Seed: 1, MeansM: 200})
		q, ok := in.QueryByID(tc.id)
		if !ok {
			t.Fatalf("no query %s", tc.id)
		}
		rel := in.Table(q.Table)
		deltas := []func() *relation.Delta{
			func() *relation.Delta { return nil },
			func() *relation.Delta {
				return &relation.Delta{Set: map[string]map[int]float64{rel.DetNames()[0]: {1: 3, 4: 5}}}
			},
			func() *relation.Delta { return &relation.Delta{Delete: []int{2, 7}} },
			func() *relation.Delta {
				return &relation.Delta{SetVG: map[string]relation.VGUpdate{tc.attr: {VG: scaledVG{mustVG(t, rel, tc.attr), 1.5}}}}
			},
			func() *relation.Delta {
				return &relation.Delta{Set: map[string]map[int]float64{rel.DetNames()[0]: {0: 1}}}
			},
		}
		for step, d := range deltas {
			if delta := d(); delta != nil {
				if _, err := rel.ApplyDelta(delta); err != nil {
					t.Fatal(err)
				}
			}
			snap := rel.Snapshot()
			outer, err := snap.Select(func(i int) bool { return i%4 != 1 })
			if err != nil {
				t.Fatal(err)
			}
			inner, err := outer.Select(func(i int) bool { return i%3 != 2 })
			if err != nil {
				t.Fatal(err)
			}
			for view, r := range map[string]*relation.Relation{"table": snap, "view of a view": inner} {
				label := fmt.Sprintf("%s/%s step %d %s", tc.id, tc.attr, step, view)
				silp := buildSILP(t, r, q.SPaQL)
				wantLo, wantHi := probeByRealize(t, newRunner(context.Background(), silp, smallOptions(5)), silp.ObjExpr)
				for k, workers := range []int{1, 2, 8} {
					o := smallOptions(5)
					o.Parallelism = workers
					lo, hi, hits, misses := probeRows(t, buildSILP(t, r, q.SPaQL), o)
					if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
						t.Fatalf("%s workers=%d: range [%v, %v], loop [%v, %v]", label, workers, lo, hi, wantLo, wantHi)
					}
					if hits+misses != silp.N {
						t.Fatalf("%s workers=%d: %d hits + %d misses, want one row per tuple (%d)", label, workers, hits, misses, silp.N)
					}
					if k > 0 && misses != 0 {
						t.Fatalf("%s workers=%d: %d rows realized again", label, workers, misses)
					}
				}
			}
		}
	}
}

// TestProbeRowsAfterDelta: a delta drops the plan and rebuilds the SILP,
// but the probe of the rebuilt SILP realizes no row a Set left in place,
// and serves none from an attribute whose VG SetVG replaced.
func TestProbeRowsAfterDelta(t *testing.T) {
	const n = 12
	rel := mutablePortfolio(t, n)
	o := smallOptions(2)
	probe := func() (hits, misses int) {
		t.Helper()
		_, _, hits, misses = probeRows(t, buildSILP(t, rel.Snapshot(), warmQuery), o)
		return hits, misses
	}
	probe()
	if _, err := rel.ApplyDelta(&relation.Delta{Set: map[string]map[int]float64{"price": {0: 500, 5: 41}}}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := probe(); misses != 0 || hits != n {
		t.Fatalf("after Set: %d rows served, %d realized; want %d and 0", hits, misses, n)
	}
	vg := mustVG(t, rel, "gain")
	if _, err := rel.ApplyDelta(&relation.Delta{SetVG: map[string]relation.VGUpdate{"gain": {VG: scaledVG{vg, 2}}}}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := probe(); hits != 0 || misses != n {
		t.Fatalf("after SetVG: %d rows served, %d realized; want 0 and %d", hits, misses, n)
	}
}

// TestProbeRowsBypassKeepsValidation: a probe needing more rows than
// probeCachedRows, here more than the whole cache holds, realizes them
// without the cache, so it does not evict the rows validation reuses:
// revalidating a package on a fresh SILP, whose probe runs again, is served
// every row the first validation realized.
func TestProbeRowsBypassKeepsValidation(t *testing.T) {
	n := relation.RowCacheSlots * 5 / 4
	rel := mutablePortfolio(t, n)
	x := make([]float64, n)
	x[1], x[6], x[n-3] = 1, 2, 1
	o := smallOptions(4)
	o.ValidationM = 1000
	first, hits, misses := validateRows(t, buildSILP(t, rel, warmQuery), x, o)
	if misses == 0 {
		t.Fatal("the first validation realized no row")
	}
	want := hits + misses
	for k := 0; k < 2; k++ {
		val, hits, misses := validateRows(t, buildSILP(t, rel, warmQuery), x, o)
		if hits != want || misses != 0 {
			t.Fatalf("revalidation %d: %d rows served, %d realized; want %d and 0", k, hits, misses, want)
		}
		assertSameValidation(t, "revalidation", val, first)
	}
	if _, _, hits, misses := probeRows(t, buildSILP(t, rel, warmQuery), o); hits != 0 || misses != n {
		t.Fatalf("probe of %d tuples: %d rows served, %d realized; want 0 and %d", n, hits, misses, n)
	}
}

// mustVG returns the VG of rel's stochastic attribute attr.
func mustVG(t *testing.T, rel *relation.Relation, attr string) relation.VGFunc {
	t.Helper()
	vg, err := rel.VG(attr)
	if err != nil {
		t.Fatal(err)
	}
	return vg
}
