package stream

import (
	"context"
	"testing"

	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
)

// TestPatchSummarizeMatchesFullResummarize pins the delta-maintenance
// contract: after a deterministic-column patch, re-folding only the touched
// tuples of a pre-delta summary is bit-identical to a full N×M
// re-summarization against the post-delta relation.
func TestPatchSummarizeMatchesFullResummarize(t *testing.T) {
	rel := testRelation(t, 97)
	src := rng.NewSource(11)
	pre := rel.Snapshot()

	mk := func(r *relation.Relation) *ScenarioCursor {
		return &ScenarioCursor{
			Name:  "c0",
			Src:   src,
			Rel:   r,
			Const: 0.5,
			Terms: []Term{{Coef: 1, Attr: "gain"}, {Coef: -0.25, Attr: "cost"}},
			Block: 16,
		}
	}
	chosen := []int{4, 0, 9, 2, 7}
	accel := make([]bool, 97)
	for i := 0; i < 97; i += 3 {
		accel[i] = true
	}
	prev, err := mk(pre).Summarize(context.Background(), chosen, scenario.Min, accel, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Dir != scenario.Min || prev.Accel == nil {
		t.Fatal("summary did not record its fold inputs")
	}

	touched := []int{3, 40, 41, 96}
	patch := map[int]float64{}
	for _, i := range touched {
		patch[i] = 100 + float64(i)
	}
	if _, err := rel.ApplyDelta(&relation.Delta{Set: map[string]map[int]float64{"cost": patch}}); err != nil {
		t.Fatal(err)
	}
	post := rel.Snapshot()

	c0 := Counters()
	patched, err := mk(post).PatchSummarize(context.Background(), prev, touched)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Counters()
	if got := c1.SummaryTuplesPatched - c0.SummaryTuplesPatched; got != int64(len(touched)) {
		t.Fatalf("patched %d tuples, want %d", got, len(touched))
	}
	if got := c1.SummaryTuplesReused - c0.SummaryTuplesReused; got != int64(97-len(touched)) {
		t.Fatalf("reused %d tuples, want %d", got, 97-len(touched))
	}

	full, err := mk(post).Summarize(context.Background(), chosen, scenario.Min, accel, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Values {
		if patched.Values[i] != full.Values[i] {
			t.Fatalf("tuple %d: patched %v, full %v", i, patched.Values[i], full.Values[i])
		}
	}
	// The touched tuples actually moved (the test would be vacuous
	// otherwise), and the pre-delta summary is untouched by the patch.
	movedAny := false
	for _, i := range touched {
		if prev.Values[i] != patched.Values[i] {
			movedAny = true
		}
	}
	if !movedAny {
		t.Fatal("no touched tuple changed its summary value")
	}
}
