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
	if got.Hint != base.Hint {
		t.Fatalf("%s: hint %v != %v", tag, got.Hint, base.Hint)
	}
}

// TestHintedDeterminismMatrix: solves hinted with a random in-bounds point —
// the incumbent when it is feasible, ignored when it is not — repeat bit for
// bit, hint fate included, on the property corpus and the FuzzMILP
// generator, and a solve whose hint was ignored is the unhinted solve. The
// corpus must exercise both fates.
func TestHintedDeterminismMatrix(t *testing.T) {
	models := propertyCorpus()
	for seed := uint64(1); seed <= 100; seed++ {
		models = append(models, randomOracleMILP(rng.NewStream(seed)).model())
	}
	s := rng.NewStream(29)
	fates := map[Hint]int{}
	for i, m := range models {
		tag := fmt.Sprintf("model %d", i)
		opts := &Options{InitialX: randomHint(m, s)}
		base := mustSolve(t, m, opts)
		fates[base.Hint]++
		assertSameHint(t, tag, base, mustSolve(t, m, opts))
		if base.Hint == HintIgnored {
			assertBitIdentical(t, tag+" unhinted", mustSolve(t, m, nil), base)
		}
	}
	if fates[HintIncumbent] == 0 || fates[HintIgnored] == 0 {
		t.Fatalf("corpus too easy: hint fates %v", fates)
	}
	t.Logf("hint fates %v", fates)
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

// TestHintFates: a feasible hint is the incumbent, returned uncopied when
// nothing beats it; a hint of the wrong length is ignored, and the solve is
// then the unhinted one, bit for bit.
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
	if res.Hint != HintNone {
		t.Fatalf("short hint: %v, want %v", res.Hint, HintNone)
	}
	assertBitIdentical(t, "short hint", mustSolve(t, m, nil), res)
}

// TestGuideSkipped: an infeasible hint guides nothing, whether the root
// relaxation is integral or fractional; it is ignored, and the solve is then
// the unhinted one, bit for bit.
func TestGuideSkipped(t *testing.T) {
	// Integral root: the LP optimum of min x, x ≥ 2 is the integer 2.
	integral := NewModel()
	x := integral.AddVar(0, 5, 1, true)
	integral.AddRow([]int{x}, []float64{1}, 2, Inf)

	// Fractional root (Σx = 7.5 over 15 binaries), and a hint outside every
	// column's bounds.
	nowhere := make([]float64, 15)
	for j := range nowhere {
		nowhere[j] = -1
	}
	for _, c := range []struct {
		tag  string
		m    *Model
		hint []float64
	}{
		{"integral root", integral, []float64{0}},
		{"fractional root", parityModel(15), nowhere},
	} {
		res := mustSolve(t, c.m, &Options{InitialX: c.hint})
		if res.Hint != HintIgnored {
			t.Fatalf("%s: hint %v, want %v", c.tag, res.Hint, HintIgnored)
		}
		assertBitIdentical(t, c.tag, mustSolve(t, c.m, nil), res)
	}
}
