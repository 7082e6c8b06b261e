package core

import (
	"context"
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
	spans := 0
	tr.Data().Walk(func(d *client.TraceSpan) {
		if d.Name != "validate" {
			return
		}
		spans++
		var err error
		if hits, err = strconv.Atoi(d.Attrs["row_hits"]); err != nil {
			t.Fatalf("row_hits %q: %v", d.Attrs["row_hits"], err)
		}
		if misses, err = strconv.Atoi(d.Attrs["row_misses"]); err != nil {
			t.Fatalf("row_misses %q: %v", d.Attrs["row_misses"], err)
		}
	})
	if spans != 1 {
		t.Fatalf("%d validate spans for one validation", spans)
	}
	return val, hits, misses
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
				vg, err := rel.VG(tc.attr)
				if err != nil {
					t.Fatal(err)
				}
				return &relation.Delta{SetVG: map[string]relation.VGUpdate{tc.attr: {VG: scaledVG{vg, 1.5}}}}
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
