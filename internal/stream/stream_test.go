package stream

import (
	"context"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
)

// testRelation builds a relation with one deterministic and one stochastic
// attribute, the minimal shape both pipeline halves touch.
func testRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("r", n)
	det := make([]float64, n)
	for i := range det {
		det[i] = float64(i%13) - 4
	}
	if err := rel.AddDet("cost", det); err != nil {
		t.Fatal(err)
	}
	dists := make([]dist.Dist, n)
	for i := range dists {
		dists[i] = dist.Normal{Mu: float64(i % 5), Sigma: 1 + float64(i%4)}
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 7, Dists: dists}); err != nil {
		t.Fatal(err)
	}
	return rel
}

// generateSet is the materialized reference: scenarios [0, m) of attr
// realized one value at a time through the relation, independently of any
// cursor.
func generateSet(t *testing.T, src rng.Source, rel *relation.Relation, attr string, m int) *scenario.Set {
	t.Helper()
	set := scenario.FromRows(attr, nil, nil)
	for j := 0; j < m; j++ {
		row := make([]float64, rel.N())
		for i := range row {
			v, err := rel.Value(src, attr, i, j)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = v
		}
		set.AppendRow(j, row)
	}
	return set
}

func TestTupleIterCoversRelation(t *testing.T) {
	rel := testRelation(t, 53)
	it := NewTupleIter(rel, []string{"cost"}, 16)
	want, err := rel.Det("cost")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for {
		lo, hi, cols, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if lo != next {
			t.Fatalf("block starts at %d, want %d", lo, next)
		}
		for i := lo; i < hi; i++ {
			if cols[0][i-lo] != want[i] {
				t.Fatalf("tuple %d: %v, want %v", i, cols[0][i-lo], want[i])
			}
		}
		next = hi
	}
	if next != rel.N() {
		t.Fatalf("iterated %d of %d tuples", next, rel.N())
	}
}

func TestFilterPushdown(t *testing.T) {
	rel := testRelation(t, 40)
	before := Counters()
	kept, err := Filter(rel, []string{"cost"}, func(get func(string) float64) bool {
		return get("cost") > 0
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	det, _ := rel.Det("cost")
	var want []int
	for i, v := range det {
		if v > 0 {
			want = append(want, i)
		}
	}
	if len(kept) != len(want) {
		t.Fatalf("kept %d tuples, want %d", len(kept), len(want))
	}
	for i := range kept {
		if kept[i] != want[i] {
			t.Fatalf("kept[%d] = %d, want %d", i, kept[i], want[i])
		}
	}
	after := Counters()
	if got := after.PushdownKept - before.PushdownKept; got != int64(len(want)) {
		t.Fatalf("PushdownKept grew by %d, want %d", got, len(want))
	}
	if got := after.PushdownFiltered - before.PushdownFiltered; got != int64(rel.N()-len(want)) {
		t.Fatalf("PushdownFiltered grew by %d, want %d", got, rel.N()-len(want))
	}

	mask, err := MaskOf(rel, []string{"cost"}, func(get func(string) float64) bool {
		return get("cost") > 0
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if mask[i] != (det[i] > 0) {
			t.Fatalf("mask[%d] = %v, want %v", i, mask[i], det[i] > 0)
		}
	}
}

// TestCursorSummarizeMatchesMaterialized is the streamed ≡ materialized
// parity matrix at the scenario layer: the cursor's block-wise summary must
// be bit-identical to scenario.Set.SummarizeP over materialized rows for
// every direction, worker count, block size, and acceleration mask.
func TestCursorSummarizeMatchesMaterialized(t *testing.T) {
	rel := testRelation(t, 41)
	src := rng.NewSource(17)
	const m = 24
	set := generateSet(t, src, rel, "gain", m)
	chosen := []int{0, 2, 3, 7, 11, 18, 23}
	accel := make([]bool, rel.N())
	for i := range accel {
		accel[i] = i%4 == 1
	}
	mask := make([]bool, rel.N())
	for i := range mask {
		mask[i] = i%6 != 5
	}
	ctx := context.Background()
	for _, withMask := range []bool{false, true} {
		cm := []bool(nil)
		setVals := set
		if withMask {
			cm = mask
			// Materialized reference under the mask: re-generate and zero the
			// masked rows exactly like translate's applyMask.
			setVals = generateSet(t, src, rel, "gain", m)
			for j := 0; j < m; j++ {
				row := setVals.Row(j)
				for i := range row {
					if !mask[i] {
						row[i] = 0
					}
				}
			}
		}
		for _, block := range []int{1, 5, 0} {
			cur := &ScenarioCursor{Name: "gain", Src: src, Rel: rel, Terms: []Term{{Coef: 1, Attr: "gain"}}, Mask: cm, Block: block}
			for _, dir := range []scenario.Direction{Min, Max} {
				for _, acc := range [][]bool{nil, accel} {
					want, err := setVals.SummarizeP(ctx, chosen, dir, acc, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 8, -1} {
						got, err := cur.Summarize(ctx, chosen, dir, acc, workers)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Values {
							if got.Values[i] != want.Values[i] {
								t.Fatalf("mask=%v block=%d dir=%v workers=%d: value[%d] = %v, want %v",
									withMask, block, dir, workers, i, got.Values[i], want.Values[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestCursorPickMatchesMaterialized asserts that streamed scoring plus
// scenario.Pick reproduces the pick over scores summed from materialized
// rows exactly: same scores, same stable order, same chosen IDs.
func TestCursorPickMatchesMaterialized(t *testing.T) {
	rel := testRelation(t, 31)
	src := rng.NewSource(9)
	const m = 30
	set := generateSet(t, src, rel, "gain", m)
	cur := &ScenarioCursor{Name: "gain", Src: src, Rel: rel, Terms: []Term{{Coef: 1, Attr: "gain"}}}
	x := make([]float64, rel.N())
	for i := range x {
		if i%3 == 0 {
			x[i] = float64(1 + i%4)
		}
	}
	parts := scenario.PartitionIDs(m, 4, 99)
	ctx := context.Background()
	for _, part := range parts {
		for _, alpha := range []float64{0.25, 0.5, 1} {
			for _, dir := range []scenario.Direction{Min, Max} {
				// Reference scores: Σ v·x_i over the package's tuples in
				// tuple order, from the materialized rows.
				wantScores := make([]float64, len(part))
				for k, j := range part {
					for i, v := range set.Row(j) {
						if x[i] != 0 {
							wantScores[k] += v * x[i]
						}
					}
				}
				want := scenario.Pick(part, alpha, dir, wantScores)
				for _, workers := range []int{1, 2, 8, -1} {
					scores, err := cur.Scores(ctx, part, x, workers)
					if err != nil {
						t.Fatal(err)
					}
					for k, v := range wantScores {
						if scores[k] != v {
							t.Fatalf("workers=%d: score of scenario %d = %v, want %v", workers, part[k], scores[k], v)
						}
					}
					got := scenario.Pick(part, alpha, dir, scores)
					if len(got) != len(want) {
						t.Fatalf("alpha=%v dir=%v: picked %d, want %d", alpha, dir, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("alpha=%v dir=%v workers=%d: pick[%d] = %d, want %d",
								alpha, dir, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestCursorSummarizeCancelled(t *testing.T) {
	rel := testRelation(t, 10)
	cur := &ScenarioCursor{Name: "gain", Src: rng.NewSource(1), Rel: rel, Terms: []Term{{Coef: 1, Attr: "gain"}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cur.Summarize(ctx, []int{0, 1}, Min, nil, 2); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
