package stream

import (
	"context"
	"math"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
)

// perValue realizes one coordinate from Relation.Value: a masked tuple is 0,
// otherwise Const plus Coef·Value term by term. It is the oracle the row
// kernel must reproduce bit for bit.
func perValue(t *testing.T, c *ScenarioCursor, tuple, scen int) float64 {
	t.Helper()
	if c.Mask != nil && !c.Mask[tuple] {
		return 0
	}
	v := c.Const
	for _, term := range c.Terms {
		av, err := c.Rel.Value(c.Src, term.Attr, tuple, scen)
		if err != nil {
			t.Fatal(err)
		}
		v += term.Coef * av
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// rowCursors returns single- and multi-term cursors, masked and unmasked,
// over a relation with a deterministic and two stochastic attributes.
func rowCursors(t *testing.T, n int) []*ScenarioCursor {
	t.Helper()
	rel := testRelation(t, n)
	ds := make([]dist.Dist, n)
	for i := range ds {
		ds[i] = dist.Pareto{Sigma: 0.5, Alpha: 1}
	}
	if err := rel.AddStoch("tail", &relation.IndependentVG{AttrID: 8, Dists: ds}); err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i%5 != 2
	}
	src := rng.NewSource(31)
	multi := []Term{{Coef: -1.5, Attr: "cost"}, {Coef: 2, Attr: "gain"}, {Coef: 0.25, Attr: "tail"}, {Coef: 1, Attr: "gain"}}
	var out []*ScenarioCursor
	for _, m := range [][]bool{nil, mask} {
		out = append(out,
			&ScenarioCursor{Name: "one", Src: src, Rel: rel, Terms: []Term{{Coef: 1, Attr: "gain"}}, Mask: m},
			&ScenarioCursor{Name: "multi", Src: src, Rel: rel, Const: 0.75, Terms: multi, Mask: m, Block: 3})
	}
	return out
}

// TestRowMatchesPerValue: every value of a row equals the per-coordinate
// realization, for masked and multi-term functions, and realizing rows
// leaves the pipeline counters alone.
func TestRowMatchesPerValue(t *testing.T) {
	scens := []int{0, 5, 1, 99, 5, 1000}
	for _, c := range rowCursors(t, 17) {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		buf := GetRowBuf()
		before := Counters()
		for i := 0; i < c.Rel.N(); i++ {
			row, err := rows.Row(i, scens, buf)
			if err != nil {
				t.Fatal(err)
			}
			for k, j := range scens {
				if want := perValue(t, c, i, j); !sameBits(row[k], want) {
					t.Fatalf("%s mask=%v: tuple %d scenario %d: row %v, per-value %v", c.Name, c.Mask != nil, i, j, row[k], want)
				}
			}
		}
		if Counters() != before {
			t.Fatal("Row moved the pipeline counters")
		}
		PutRowBuf(buf)
	}
	bad := &ScenarioCursor{Rel: testRelation(t, 3), Terms: []Term{{Coef: 1, Attr: "nope"}}}
	if _, err := bad.Rows(); err == nil {
		t.Fatal("unknown attribute resolved")
	}
}

// TestCursorFoldsMatchPerValue re-derives Summarize, PatchSummarize and
// Scores from per-value realizations at several worker counts, with a
// chosen list longer than one row chunk.
func TestCursorFoldsMatchPerValue(t *testing.T) {
	ctx := context.Background()
	long := make([]int, 2*RowChunk+37)
	for k := range long {
		long[k] = (k * 7919) % 1500
	}
	for _, c := range rowCursors(t, 23) {
		n := c.Rel.N()
		accel := make([]bool, n)
		for i := range accel {
			accel[i] = i%3 == 0
		}
		x := make([]float64, n)
		for i := range x {
			if i%4 != 1 {
				x[i] = float64(1 + i%3)
			}
		}
		for _, chosen := range [][]int{{4}, {3, 9, 1}, long} {
			for _, dir := range []scenario.Direction{Min, Max} {
				want := make([]float64, n)
				for i := range want {
					d := dir
					if accel[i] {
						d = d.Opposite()
					}
					v := perValue(t, c, i, chosen[0])
					for _, j := range chosen[1:] {
						if w := perValue(t, c, i, j); (d == Min && w < v) || (d == Max && w > v) {
							v = w
						}
					}
					want[i] = v
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := c.Summarize(ctx, chosen, dir, accel, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if !sameBits(got.Values[i], want[i]) {
							t.Fatalf("%s |chosen|=%d dir=%v workers=%d: summary[%d] %v, want %v", c.Name, len(chosen), dir, workers, i, got.Values[i], want[i])
						}
					}
				}
				stale := &scenario.Summary{Values: make([]float64, n), Chosen: chosen, Dir: dir, Accel: accel}
				touched := []int{0, 4, n - 1}
				patched, err := c.PatchSummarize(ctx, stale, touched)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range touched {
					if !sameBits(patched.Values[i], want[i]) {
						t.Fatalf("%s: patched[%d] %v, want %v", c.Name, i, patched.Values[i], want[i])
					}
				}
			}
		}
		for _, workers := range []int{1, 2, 8} {
			scores, err := c.Scores(ctx, long, x, workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, j := range long {
				sum := 0.0
				for i, xi := range x {
					if xi != 0 {
						sum += perValue(t, c, i, j) * xi
					}
				}
				if !sameBits(scores[k], sum) {
					t.Fatalf("%s workers=%d: score[%d] %v, want %v", c.Name, workers, k, scores[k], sum)
				}
			}
		}
	}
}
