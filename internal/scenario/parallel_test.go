package scenario

import (
	"context"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
)

func parallelTestRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("r", n)
	dists := make([]dist.Dist, n)
	for i := range dists {
		dists[i] = dist.Normal{Mu: float64(i % 7), Sigma: 1 + float64(i%3)}
	}
	if err := rel.AddStoch("v", &relation.IndependentVG{AttrID: 4, Dists: dists}); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestSummarizePMatchesSequential(t *testing.T) {
	rel := parallelTestRelation(t, 37)
	src := rng.NewSource(11)
	set := generate(t, src, rel, "v", 0, 20)
	chosen := []int{0, 3, 7, 11, 19}
	accel := make([]bool, rel.N())
	for i := range accel {
		accel[i] = i%5 == 0
	}
	for _, dir := range []Direction{Min, Max} {
		// The sequential fold: initialize from chosen[0], then compare
		// chosen[1:] in order.
		want := make([]float64, set.N)
		for i := range want {
			d := dir
			if accel[i] {
				d = d.Opposite()
			}
			want[i] = set.Value(i, chosen[0])
			for _, j := range chosen[1:] {
				if w := set.Value(i, j); (d == Min && w < want[i]) || (d == Max && w > want[i]) {
					want[i] = w
				}
			}
		}
		for _, workers := range []int{1, 2, 8, -1} {
			got, err := set.SummarizeP(context.Background(), chosen, dir, accel, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got.Values[i] != want[i] {
					t.Fatalf("dir=%v workers=%d: value[%d] = %v, want %v",
						dir, workers, i, got.Values[i], want[i])
				}
			}
		}
	}
}
