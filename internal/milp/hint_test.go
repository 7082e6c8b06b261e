package milp

import (
	"fmt"
	"testing"

	"spq/internal/rng"
)

// randomHint draws an integer point inside the model's bounds, feasible or
// not.
func randomHint(m *Model, s *rng.Stream) []float64 {
	x := make([]float64, len(m.vars))
	for j, v := range m.vars {
		x[j] = v.lo + float64(s.IntN(int(v.hi-v.lo)+1))
	}
	return x
}

// assertSameHint extends assertBitIdentical to the hint's fate.
func assertSameHint(t *testing.T, tag string, base, got *Result) {
	t.Helper()
	assertBitIdentical(t, tag, base, got)
	if got.Hint != base.Hint || got.GuideNodes != base.GuideNodes || got.GuideIncumbent != base.GuideIncumbent {
		t.Fatalf("%s: hint %v / %d guide nodes / won %t != %v / %d / %t", tag,
			got.Hint, got.GuideNodes, got.GuideIncumbent, base.Hint, base.GuideNodes, base.GuideIncumbent)
	}
}

// TestHintedDeterminismMatrix: solves hinted with a random in-bounds point —
// an incumbent when it is feasible, the neighbourhood guide when it is not —
// repeat bit for bit, hint fate included, on the property corpus and the
// FuzzMILP generator. The corpus must exercise both fates and a
// neighbourhood search that supplies the incumbent.
func TestHintedDeterminismMatrix(t *testing.T) {
	models := propertyCorpus()
	for seed := uint64(1); seed <= 100; seed++ {
		models = append(models, randomOracleMILP(rng.NewStream(seed)).model())
	}
	s := rng.NewStream(29)
	fates := map[Hint]int{}
	won := 0
	for i, m := range models {
		opts := &Options{InitialX: randomHint(m, s)}
		base := mustSolve(t, m, opts)
		fates[base.Hint]++
		if base.GuideIncumbent {
			won++
		}
		assertSameHint(t, fmt.Sprintf("model %d", i), base, mustSolve(t, m, opts))
	}
	if fates[HintIncumbent] == 0 || fates[HintGuide] == 0 || won == 0 {
		t.Fatalf("corpus too easy: hint fates %v, %d neighbourhood incumbents", fates, won)
	}
	t.Logf("hint fates %v, %d neighbourhood incumbents", fates, won)
}

// parityModel is min −Σx over n binaries subject to Σ 2x ≤ n with n odd:
// every relaxation that leaves a variable free is worth half a unit more
// than any integer point, so proving the optimum −(n−1)/2 enumerates.
func parityModel(n int) *Model {
	m := NewModel()
	idxs := make([]int, n)
	twos := make([]float64, n)
	for j := range idxs {
		idxs[j] = m.AddBinary(-1)
		twos[j] = 2
	}
	m.AddRow(idxs, twos, -Inf, float64(n))
	return m
}

// lockedParityModel is parityModel with the row's lower side at n−1: the
// two-sided row locks every column both ways, so simple rounding settles no
// node, and the integer optimum is still −(n−1)/2.
func lockedParityModel(n int) *Model {
	m := parityModel(n)
	m.rows[0].lo = float64(n - 1)
	return m
}

// TestGuideCapKeepsStatus: a neighbourhood search that stops at its node cap
// still hands over the point it found, and the main search still proves the
// optimum: the cap never reaches Result.Status. Each guide is out of bounds
// (so infeasible) except at three random columns, so it fixes at most three
// columns of the root and leaves a neighbourhood too large for the cap; the
// seeds are searched for the first guide that fixes any. The model's row
// locks every column both ways, so no rounded point ends the neighbourhood
// search before its cap.
func TestGuideCapKeepsStatus(t *testing.T) {
	const n = 15
	m := lockedParityModel(n)
	s := rng.NewStream(3)
	for try := 0; try < 20; try++ {
		guide := make([]float64, n)
		for j := range guide {
			guide[j] = 2
		}
		for k := 0; k < 3; k++ {
			guide[s.IntN(n)] = float64(s.IntN(2))
		}
		res := mustSolve(t, m, &Options{InitialX: guide})
		if res.Status != StatusOptimal || res.Obj != -(n-1)/2 {
			t.Fatalf("try %d: status %v obj %v, want optimal %d", try, res.Status, res.Obj, -(n-1)/2)
		}
		if res.Hint != HintGuide || res.Nodes < res.GuideNodes {
			t.Fatalf("try %d: hint %v, %d nodes of which %d guided", try, res.Hint, res.Nodes, res.GuideNodes)
		}
		if res.GuideNodes == 0 {
			continue // the guide agreed with the root nowhere
		}
		if res.GuideNodes != guideCap || !res.GuideIncumbent {
			t.Fatalf("try %d: %d guided nodes (cap %d), found a point: %t", try, res.GuideNodes, guideCap, res.GuideIncumbent)
		}
		t.Logf("try %d: %d nodes, %d of them in the capped neighbourhood", try, res.Nodes, res.GuideNodes)
		return
	}
	t.Fatal("no guide agreed with the root anywhere")
}

// TestGuideSkipped: the neighbourhood search does not run when the root
// relaxation is integral, nor when the guide agrees with the root point on
// no integer column; the solve is then the unhinted one, bit for bit.
func TestGuideSkipped(t *testing.T) {
	// Integral root: the LP optimum of min x, x ≥ 2 is the integer 2.
	integral := NewModel()
	x := integral.AddVar(0, 5, 1, true)
	integral.AddRow([]int{x}, []float64{1}, 2, Inf)

	// Fractional root (Σx = 7.5 over 15 binaries), and a guide outside every
	// column's bounds, which rounds to a value no root coordinate takes.
	nowhere := make([]float64, 15)
	for j := range nowhere {
		nowhere[j] = -1
	}
	for _, c := range []struct {
		tag   string
		m     *Model
		guide []float64
	}{
		{"integral root", integral, []float64{0}},
		{"no agreement", parityModel(15), nowhere},
	} {
		base := mustSolve(t, c.m, nil)
		res := mustSolve(t, c.m, &Options{InitialX: c.guide})
		if res.Hint != HintGuide || res.GuideNodes != 0 || res.GuideIncumbent {
			t.Fatalf("%s: hint %v, %d guide nodes, won %t; want a guide that never ran", c.tag, res.Hint, res.GuideNodes, res.GuideIncumbent)
		}
		assertBitIdentical(t, c.tag, base, res)
	}
}

// TestHintFates: a feasible hint is the incumbent, returned uncopied when
// nothing beats it; a hint of the wrong length is ignored.
func TestHintFates(t *testing.T) {
	m := NewModel()
	a, b := m.AddVar(0, 3, -1, true), m.AddVar(0, 3, -1, true)
	m.AddRow([]int{a, b}, []float64{1, 1}, -Inf, 4)
	hint := []float64{1, 3}
	res := mustSolve(t, m, &Options{InitialX: hint})
	if res.Hint != HintIncumbent || res.Status != StatusOptimal || res.Obj != -4 {
		t.Fatalf("feasible hint: %v, status %v obj %v", res.Hint, res.Status, res.Obj)
	}
	if &res.X[0] != &hint[0] {
		t.Fatal("an optimal feasible hint was copied")
	}
	res = mustSolve(t, m, &Options{InitialX: []float64{1}})
	if res.Hint != HintNone || res.Status != StatusOptimal || res.Obj != -4 {
		t.Fatalf("short hint: %v, status %v obj %v", res.Hint, res.Status, res.Obj)
	}
}
