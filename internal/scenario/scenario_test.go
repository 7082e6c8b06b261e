package scenario

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
)

func testRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r := relation.New("t", n)
	if err := r.AddStoch("gain", &relation.IndependentVG{
		AttrID: 1,
		Dists:  []dist.Dist{dist.Normal{Mu: 0, Sigma: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// generate materializes scenarios [first, first+m) of attr, one appended row
// per scenario.
func generate(t *testing.T, src rng.Source, rel *relation.Relation, attr string, first, m int) *Set {
	t.Helper()
	s := FromRows(attr, nil, nil)
	for j := 0; j < m; j++ {
		row := make([]float64, rel.N())
		for i := range row {
			v, err := rel.Value(src, attr, i, first+j)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = v
		}
		s.AppendRow(first+j, row)
	}
	return s
}

// summarize is SummarizeP on one worker.
func summarize(t *testing.T, s *Set, chosen []int, dir Direction, accel []bool) *Summary {
	t.Helper()
	sm, err := s.SummarizeP(context.Background(), chosen, dir, accel, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// score is the scenario score Σ_i s_ij·x_i of local scenario j (§5.3).
func score(s *Set, j int, x []float64) float64 {
	sum := 0.0
	for i, v := range s.Row(j) {
		sum += v * x[i]
	}
	return sum
}

// partScores scores every scenario of part, aligned with part: the shape
// Pick consumes.
func partScores(s *Set, part []int, x []float64) []float64 {
	scores := make([]float64, len(part))
	for k, j := range part {
		scores[k] = score(s, j, x)
	}
	return scores
}

// satisfiedBy counts how many of the chosen scenarios a solution satisfies
// for the inner constraint Σ a·x ⊙ v: the check of the α-summary guarantee.
func satisfiedBy(s *Set, x []float64, chosen []int, geq bool, v float64) int {
	count := 0
	for _, j := range chosen {
		sc := score(s, j, x)
		if (geq && sc >= v) || (!geq && sc <= v) {
			count++
		}
	}
	return count
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	rel := testRelation(t, 8)
	src := rng.NewSource(1)
	s1 := generate(t, src, rel, "gain", 0, 5)
	if s1.M() != 5 || s1.N != 8 {
		t.Fatalf("M=%d N=%d, want 5, 8", s1.M(), s1.N)
	}
	s2 := generate(t, src, rel, "gain", 0, 5)
	for j := 0; j < 5; j++ {
		for i := 0; i < 8; i++ {
			if s1.Row(j)[i] != s2.Row(j)[i] {
				t.Fatal("regeneration differs")
			}
		}
	}
}

func TestExtendContinuesScenarioIDs(t *testing.T) {
	rel := testRelation(t, 4)
	src := rng.NewSource(2)
	s := generate(t, src, rel, "gain", 0, 3)
	more := generate(t, src, rel, "gain", 3, 2)
	for j, id := range more.IDs {
		s.AppendRow(id, more.Row(j))
	}
	if s.M() != 5 {
		t.Fatalf("M = %d, want 5", s.M())
	}
	wantIDs := []int{0, 1, 2, 3, 4}
	for k, id := range s.IDs {
		if id != wantIDs[k] {
			t.Fatalf("IDs = %v", s.IDs)
		}
	}
	// Appended scenarios must match generating the whole range at once.
	direct := generate(t, src, rel, "gain", 0, 5)
	for j := 0; j < 5; j++ {
		for i := 0; i < 4; i++ {
			if s.Row(j)[i] != direct.Row(j)[i] {
				t.Fatal("extension differs from direct generation")
			}
		}
	}
}

func TestPartitionProperties(t *testing.T) {
	parts := PartitionIDs(10, 3, 42)
	if len(parts) != 3 {
		t.Fatalf("got %d partitions", len(parts))
	}
	seen := map[int]bool{}
	total := 0
	for _, p := range parts {
		if len(p) < 3 || len(p) > 4 {
			t.Fatalf("partition size %d not near-equal for 10/3", len(p))
		}
		for _, j := range p {
			if seen[j] {
				t.Fatalf("scenario %d in two partitions", j)
			}
			seen[j] = true
			total++
		}
	}
	if total != 10 {
		t.Fatalf("partitions cover %d scenarios, want 10", total)
	}
	// Determinism.
	again := PartitionIDs(10, 3, 42)
	for z := range parts {
		for k := range parts[z] {
			if parts[z][k] != again[z][k] {
				t.Fatal("partition not deterministic for fixed seed")
			}
		}
	}
}

func TestPartitionClamps(t *testing.T) {
	if got := len(PartitionIDs(3, 0, 1)); got != 1 {
		t.Fatalf("z=0 gave %d partitions, want 1", got)
	}
	if got := len(PartitionIDs(3, 10, 1)); got != 3 {
		t.Fatalf("z=10 gave %d partitions, want 3 (=M)", got)
	}
}

func TestPickOrdering(t *testing.T) {
	rel := testRelation(t, 3)
	s := generate(t, rng.NewSource(6), rel, "gain", 0, 6)
	x := []float64{1, 1, 1}
	part := []int{0, 1, 2, 3, 4, 5} // the identity, so scores[j] is scenario j's
	scores := partScores(s, part, x)
	picked := Pick(part, 0.5, Min, scores) // ⌈3⌉ highest-scoring for ≥
	if len(picked) != 3 {
		t.Fatalf("picked %d, want 3", len(picked))
	}
	minPicked := math.Inf(1)
	for _, j := range picked {
		minPicked = math.Min(minPicked, scores[j])
	}
	for _, j := range part {
		inPicked := false
		for _, p := range picked {
			if p == j {
				inPicked = true
			}
		}
		if !inPicked && scores[j] > minPicked+1e-12 {
			t.Fatalf("unpicked scenario %d has higher score than picked minimum", j)
		}
	}
	// Max direction picks lowest scores.
	pickedMax := Pick(part, 0.5, Max, scores)
	maxPicked := math.Inf(-1)
	for _, j := range pickedMax {
		maxPicked = math.Max(maxPicked, scores[j])
	}
	for _, j := range part {
		inPicked := false
		for _, p := range pickedMax {
			if p == j {
				inPicked = true
			}
		}
		if !inPicked && scores[j] < maxPicked-1e-12 {
			t.Fatalf("unpicked scenario %d has lower score than picked maximum (≤ direction)", j)
		}
	}
	// Ties keep the partition's order (the sort is stable).
	tied := []float64{2, 1, 2, 1} // scenarios 3, 2, 1, 0
	if got := Pick([]int{3, 2, 1, 0}, 0.5, Min, tied); got[0] != 3 || got[1] != 1 {
		t.Fatalf("tied ≥ pick = %v, want [3 1]", got)
	}
}

func TestPickEdgeCases(t *testing.T) {
	part := []int{0, 1, 2, 3}
	if got := Pick(part, 0, Min, nil); got != nil {
		t.Fatalf("alpha=0 should pick nothing, got %v", got)
	}
	if got := Pick(part, 1, Min, nil); len(got) != 4 {
		t.Fatalf("alpha=1 should pick all, got %v", got)
	}
	if got := Pick(part, 2, Min, nil); len(got) != 4 {
		t.Fatalf("alpha>1 should clamp to all, got %v", got)
	}
	if got := Pick(part, 0.25, Min, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("alpha=0.25 of 4 should pick the leading scenario, got %v", got)
	}
}

func TestSummarizeIsTupleWiseExtreme(t *testing.T) {
	rel := testRelation(t, 6)
	s := generate(t, rng.NewSource(8), rel, "gain", 0, 5)
	chosen := []int{0, 2, 4}
	sm := summarize(t, s, chosen, Min, nil)
	for i := 0; i < 6; i++ {
		want := math.Inf(1)
		for _, j := range chosen {
			want = math.Min(want, s.Row(j)[i])
		}
		if sm.Values[i] != want {
			t.Fatalf("summary[%d] = %v, want %v", i, sm.Values[i], want)
		}
	}
	smMax := summarize(t, s, chosen, Max, nil)
	for i := 0; i < 6; i++ {
		if smMax.Values[i] < sm.Values[i] {
			t.Fatal("max summary below min summary")
		}
	}
}

func TestSummarizeAcceleration(t *testing.T) {
	rel := testRelation(t, 4)
	s := generate(t, rng.NewSource(9), rel, "gain", 0, 5)
	chosen := []int{0, 1, 2}
	accel := []bool{true, false, false, false}
	sm := summarize(t, s, chosen, Min, accel)
	// Tuple 0 uses MAX (accelerated), others MIN.
	want0 := math.Inf(-1)
	for _, j := range chosen {
		want0 = math.Max(want0, s.Row(j)[0])
	}
	if sm.Values[0] != want0 {
		t.Fatalf("accelerated tuple 0 = %v, want max %v", sm.Values[0], want0)
	}
	want1 := math.Inf(1)
	for _, j := range chosen {
		want1 = math.Min(want1, s.Row(j)[1])
	}
	if sm.Values[1] != want1 {
		t.Fatalf("non-accelerated tuple 1 = %v, want min %v", sm.Values[1], want1)
	}
}

// Property (Proposition 1): any solution satisfying a min-summary with ≥
// satisfies every chosen scenario. This is the core conservativeness
// guarantee SummarySearch relies on.
func TestAlphaSummaryGuaranteeProperty(t *testing.T) {
	rel := testRelation(t, 10)
	s := generate(t, rng.NewSource(10), rel, "gain", 0, 20)
	f := func(seed uint64, rawV int8) bool {
		st := rng.NewStream(seed)
		// Random sparse nonnegative integer solution.
		x := make([]float64, 10)
		for i := range x {
			if st.IntN(3) == 0 {
				x[i] = float64(st.IntN(4))
			}
		}
		chosen := []int{st.IntN(20), st.IntN(20), st.IntN(20)}
		sm := summarize(t, s, chosen, Min, nil)
		// Summary score.
		score := 0.0
		for i := range x {
			score += sm.Values[i] * x[i]
		}
		v := float64(rawV) / 4
		if score >= v {
			// x satisfies the summary ⇒ must satisfy all chosen scenarios.
			return satisfiedBy(s, x, chosen, true, v) == len(chosen)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaSummaryGuaranteeMaxDirection(t *testing.T) {
	rel := testRelation(t, 8)
	s := generate(t, rng.NewSource(11), rel, "gain", 0, 12)
	f := func(seed uint64, rawV int8) bool {
		st := rng.NewStream(seed)
		x := make([]float64, 8)
		for i := range x {
			x[i] = float64(st.IntN(3))
		}
		chosen := []int{st.IntN(12), st.IntN(12)}
		sm := summarize(t, s, chosen, Max, nil)
		score := 0.0
		for i := range x {
			score += sm.Values[i] * x[i]
		}
		v := float64(rawV) / 4
		if score <= v {
			return satisfiedBy(s, x, chosen, false, v) == len(chosen)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Min.Opposite() != Max || Max.Opposite() != Min {
		t.Fatal("Opposite wrong")
	}
	if Min.String() != "min" || Max.String() != "max" {
		t.Fatal("String wrong")
	}
}

func TestSatisfiedByCounts(t *testing.T) {
	rel := relation.New("d", 2)
	_ = rel.AddDet("a", []float64{1, 2}) // deterministic: all scenarios equal
	s := generate(t, rng.NewSource(15), rel, "a", 0, 4)
	x := []float64{1, 1} // score = 3 in every scenario
	if got := satisfiedBy(s, x, []int{0, 1, 2, 3}, true, 3); got != 4 {
		t.Fatalf("≥3 satisfied = %d, want 4", got)
	}
	if got := satisfiedBy(s, x, []int{0, 1, 2, 3}, true, 3.5); got != 0 {
		t.Fatalf("≥3.5 satisfied = %d, want 0", got)
	}
	if got := satisfiedBy(s, x, []int{0, 1}, false, 3); got != 2 {
		t.Fatalf("≤3 satisfied = %d, want 2", got)
	}
}
