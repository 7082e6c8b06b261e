package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/workload"
)

// TestSketchAfterDeltaMatchesColdEngine: a sketch answer depends on the
// data only, not on the cache history that led to it. An engine that
// clustered Galaxy Q7 (with a SUM(base_r) row, so base_r is a clustering
// feature) re-asks the query after each of three 4-cell base_r Sets and an
// Append; every answer must carry the package and objective bits of a fresh
// engine whose table took the same deltas before its first ask.
func TestSketchAfterDeltaMatchesColdEngine(t *testing.T) {
	const n = 2000
	cfg := workload.Config{N: n, Seed: 42, MeansM: 50}
	q, ok := workload.Galaxy(workload.Config{N: 2, Seed: 42, MeansM: 2}).QueryByID("Q7")
	if !ok {
		t.Fatal("galaxy has no Q7")
	}
	const marker = "COUNT(*) BETWEEN 5 AND 10 AND"
	at := strings.Index(q.SPaQL, marker)
	if at < 0 {
		t.Fatalf("galaxy Q7 changed shape: %s", q.SPaQL)
	}
	at += len(marker)
	req := Request{
		Query:   q.SPaQL[:at] + " SUM(base_r) <= 1000 AND" + q.SPaQL[at:],
		Method:  "sketch",
		Options: &core.Options{Seed: 1, ValidationM: 2000, InitialM: 20, MaxM: 40, FixedZ: 1},
		Sketch:  &sketch.Options{GroupSize: 64, Shards: 4},
	}
	table := func() *relation.Relation { return workload.Galaxy(cfg).Table(q.Table) }

	rel := table()
	base, err := rel.Det("base_r")
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(7)
	var deltas []*relation.Delta
	for range 3 {
		set := map[int]float64{}
		for len(set) < 4 {
			tup := s.IntN(n)
			set[tup] = base[tup] * (0.9 + 0.2*s.Float64())
		}
		deltas = append(deltas, &relation.Delta{Set: map[string]map[int]float64{"base_r": set}})
	}
	// Galaxy draws petromag_r from one distribution per tuple, which an
	// Append cannot extend, so the appended tuple comes with a replacement
	// VG that covers it.
	vg, err := rel.VG("petromag_r")
	if err != nil {
		t.Fatal(err)
	}
	ivg := vg.(*relation.IndependentVG)
	means, err := rel.Means("petromag_r")
	if err != nil {
		t.Fatal(err)
	}
	deltas = append(deltas, &relation.Delta{
		Append: []map[string]float64{{"base_r": 9}},
		SetVG: map[string]relation.VGUpdate{"petromag_r": {
			VG:    &relation.IndependentVG{AttrID: ivg.AttrID, Dists: append(slices.Clone(ivg.Dists), dist.Normal{Mu: 9, Sigma: 1})},
			Means: means,
		}},
	})

	answer := func(e *Engine) string {
		t.Helper()
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("feasible=%t obj=%016x x=", res.Feasible, math.Float64bits(res.Objective))
		for i, v := range res.X {
			if v != 0 {
				out += fmt.Sprintf(" %d:%016x", i, math.Float64bits(v))
			}
		}
		return out
	}
	warm := New(testCatalog{strings.ToLower(q.Table): rel}, nil)
	answer(warm)
	for i, d := range deltas {
		if _, err := warm.ApplyDelta(q.Table, d); err != nil {
			t.Fatal(err)
		}
		got := answer(warm)
		fresh := table()
		for _, d := range deltas[:i+1] {
			if _, err := fresh.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		if want := answer(New(testCatalog{strings.ToLower(q.Table): fresh}, nil)); got != want {
			t.Errorf("after delta %d the engine answered\n%s\na fresh engine over the same data answered\n%s", i+1, got, want)
		}
	}
}
