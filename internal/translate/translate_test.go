package translate

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"spq/internal/dist"
	"spq/internal/milp"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/spaql"
)

// portfolioRelation builds a small Stock_Investments-like relation.
func portfolioRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	vol := make([]float64, n)
	for i := range price {
		price[i] = float64(50 + 10*i)
		vol[i] = float64(i%3) / 10
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("vol", vol); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{
		AttrID: 1,
		Dists:  []dist.Dist{dist.Normal{Mu: 1, Sigma: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(999), 100)
	return rel
}

func buildQuery(t *testing.T, src string, rel *relation.Relation) *SILP {
	t.Helper()
	q := spaql.MustParse(src)
	s, err := Build(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildPaperQuery(t *testing.T) {
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 200 AND
		SUM(gain) >= -10 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`, rel)
	if s.N != 6 {
		t.Fatalf("N = %d", s.N)
	}
	if len(s.DetCons) != 1 || len(s.ProbCons) != 1 {
		t.Fatalf("cons = %d det, %d prob", len(s.DetCons), len(s.ProbCons))
	}
	if !s.Maximize || s.ObjKind != ObjLinear {
		t.Fatalf("objective: max=%v kind=%v", s.Maximize, s.ObjKind)
	}
	// Objective coefficients are the means (exact: Normal(1,2) → 1).
	for i, c := range s.ObjCoefs {
		if c != 1 {
			t.Fatalf("objcoef[%d] = %v, want 1", i, c)
		}
	}
	pc := s.ProbCons[0]
	if !pc.Geq || pc.V != -10 || pc.P != 0.95 {
		t.Fatalf("prob con = %+v", pc)
	}
	if pc.Direction() != scenario.Min {
		t.Fatal("≥ inner constraint should summarize with Min")
	}
}

func TestBuildProbabilityLERewrite(t *testing.T) {
	rel := portfolioRelation(t, 4)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(gain) <= 5 WITH PROBABILITY <= 0.2`, rel)
	pc := s.ProbCons[0]
	// Pr(≤5) ≤ 0.2 ⇔ Pr(≥5) ≥ 0.8 (up to null boundary sets).
	if !pc.Geq || math.Abs(pc.P-0.8) > 1e-12 {
		t.Fatalf("rewritten con = %+v", pc)
	}
	if pc.Direction() != scenario.Min {
		t.Fatal("direction after rewrite should be Min")
	}
}

func TestBuildMinProbObjectiveNormalized(t *testing.T) {
	rel := portfolioRelation(t, 4)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) <= 3
		MINIMIZE PROBABILITY OF SUM(gain) >= 100`, rel)
	if !s.Maximize || s.ObjKind != ObjProbability || s.ObjGeq {
		t.Fatalf("normalized objective: max=%v kind=%v geq=%v", s.Maximize, s.ObjKind, s.ObjGeq)
	}
}

func TestBuildWhereFiltersRelation(t *testing.T) {
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks WHERE price <= 80
		SUCH THAT COUNT(*) >= 1`, rel)
	if s.N != 4 { // prices 50, 60, 70, 80
		t.Fatalf("filtered N = %d, want 4", s.N)
	}
}

func TestBuildWhereEmptyErrors(t *testing.T) {
	rel := portfolioRelation(t, 3)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM stocks WHERE price > 10000 SUCH THAT COUNT(*) >= 1`)
	if _, err := Build(q, rel, nil); err == nil {
		t.Fatal("expected error for empty selection")
	}
}

func TestBuildValidationFailure(t *testing.T) {
	rel := portfolioRelation(t, 3)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(gain) >= 0`)
	if _, err := Build(q, rel, nil); err == nil {
		t.Fatal("unvalidated stochastic constraint accepted")
	}
}

func TestDeriveBoundsFromCount(t *testing.T) {
	rel := portfolioRelation(t, 4)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) BETWEEN 2 AND 7`, rel)
	for i, hi := range s.VarHi {
		if hi != 7 {
			t.Fatalf("VarHi[%d] = %v, want 7 (from COUNT ≤ 7)", i, hi)
		}
	}
}

func TestDeriveBoundsFromBudget(t *testing.T) {
	rel := portfolioRelation(t, 4)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(price) <= 200`, rel)
	// price = 50,60,70,80 → bounds 4,3,2,2.
	want := []float64{4, 3, 2, 2}
	for i, hi := range s.VarHi {
		if hi != want[i] {
			t.Fatalf("VarHi[%d] = %v, want %v", i, hi, want[i])
		}
	}
}

func TestDeriveBoundsFromRepeat(t *testing.T) {
	rel := portfolioRelation(t, 3)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks REPEAT 0 SUCH THAT COUNT(*) >= 1`, rel)
	for i, hi := range s.VarHi {
		if hi != 1 {
			t.Fatalf("VarHi[%d] = %v, want 1 (REPEAT 0 = no duplicates)", i, hi)
		}
	}
}

func TestDeriveBoundsFallback(t *testing.T) {
	rel := portfolioRelation(t, 2)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) >= 1`)
	s, err := Build(q, rel, &Options{MaxCopies: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i, hi := range s.VarHi {
		if hi != 25 {
			t.Fatalf("VarHi[%d] = %v, want fallback 25", i, hi)
		}
	}
}

func TestGenerateSetsShape(t *testing.T) {
	rel := portfolioRelation(t, 5)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(gain) >= -10 WITH PROBABILITY >= 0.9 AND COUNT(*) <= 4`, rel)
	src := rng.NewSource(1)
	sets, objSet, err := s.GenerateSetsP(context.Background(), src, 0, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if objSet != nil {
		t.Fatal("no probability objective, objSet should be nil")
	}
	if len(sets) != 1 || sets[0].M() != 7 || sets[0].N != 5 {
		t.Fatalf("set shape: %d sets, M=%d N=%d", len(sets), sets[0].M(), sets[0].N)
	}
	// Inner-function values must match direct expression evaluation.
	e := s.ProbCons[0].Expr
	for j := 0; j < 7; j++ {
		for i := 0; i < 5; i++ {
			want := e.Const
			for _, term := range e.Terms {
				v, err := rel.Value(src, term.Attr, i, j)
				if err != nil {
					t.Fatal(err)
				}
				want += term.Coef * v
			}
			if got := sets[0].Row(j)[i]; got != want {
				t.Fatalf("set[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestGenerateSetsContinuesIDs pins how a scenario set grows: generating the
// new ID range and appending its rows equals generating the whole range at
// once.
func TestGenerateSetsContinuesIDs(t *testing.T) {
	rel := portfolioRelation(t, 3)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(gain) >= 0 WITH PROBABILITY >= 0.9 AND COUNT(*) <= 2
		MAXIMIZE PROBABILITY OF SUM(gain) >= 1`, rel)
	src := rng.NewSource(2)
	ctx := context.Background()
	sets, objSet, err := s.GenerateSetsP(ctx, src, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if objSet == nil {
		t.Fatal("probability objective should produce an objective set")
	}
	more, moreObj, err := s.GenerateSetsP(ctx, src, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range more[0].IDs {
		sets[0].AppendRow(id, more[0].Row(j))
		objSet.AppendRow(id, moreObj.Row(j))
	}
	direct, directObj, err := s.GenerateSetsP(ctx, src, 0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sets[0].IDs, direct[0].IDs) || !slices.Equal(objSet.IDs, directObj.IDs) {
		t.Fatalf("IDs %v / %v, want %v", sets[0].IDs, objSet.IDs, direct[0].IDs)
	}
	for j := 0; j < 5; j++ {
		if !slices.Equal(sets[0].Row(j), direct[0].Row(j)) {
			t.Fatalf("constraint scenario %d differs from direct generation", j)
		}
		if !slices.Equal(objSet.Row(j), directObj.Row(j)) {
			t.Fatalf("objective scenario %d differs from direct generation", j)
		}
	}
}

func TestFormulateSAASizeComplexity(t *testing.T) {
	rel := portfolioRelation(t, 10)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 1 AND 5 AND
		SUM(gain) >= -10 WITH PROBABILITY >= 0.9`, rel)
	src := rng.NewSource(3)
	for _, M := range []int{5, 10, 20} {
		sums, _ := singletons(t, s, src, 0, M)
		model, vm, err := s.FormulateCSA(sums, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(vm.ConsY[0]) != M {
			t.Fatalf("M=%d: %d indicators", M, len(vm.ConsY[0]))
		}
		// Θ(NM): coefficient count must grow linearly with M.
		coefs := model.NumCoefficients()
		// N count-row coefs + M·(N+1 bigM) + M ones ≈ N + M(N+2).
		want := 10 + M*(10+2)
		if coefs != want {
			t.Fatalf("M=%d: coefficients = %d, want %d", M, coefs, want)
		}
	}
}

func TestFormulateCSASizeIndependentOfM(t *testing.T) {
	rel := portfolioRelation(t, 10)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 1 AND 5 AND
		SUM(gain) >= -10 WITH PROBABILITY >= 0.9`, rel)
	src := rng.NewSource(4)
	var sizes []int
	for _, M := range []int{10, 40} {
		sets, _, err := s.GenerateSetsP(context.Background(), src, 0, M, 1)
		if err != nil {
			t.Fatal(err)
		}
		parts := scenario.PartitionIDs(M, 1, 7)
		chosen := scenario.Pick(parts[0], 0.5, scenario.Min, nil)
		sm, err := sets[0].SummarizeP(context.Background(), chosen, scenario.Min, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		model, vm, err := s.FormulateCSA([][]*scenario.Summary{{sm}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(vm.ConsY[0]) != 1 {
			t.Fatalf("want 1 summary indicator, got %d", len(vm.ConsY[0]))
		}
		sizes = append(sizes, model.NumCoefficients())
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("CSA size depends on M: %v", sizes)
	}
}

func TestSAAEndToEndSolve(t *testing.T) {
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 200 AND
		SUM(gain) >= -3 WITH PROBABILITY >= 0.6
		MAXIMIZE EXPECTED SUM(gain)`, rel)
	src := rng.NewSource(5)
	sums, _ := singletons(t, s, src, 0, 10)
	model, _, err := s.FormulateCSA(sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := milp.Solve(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal && res.Status != milp.StatusFeasible {
		t.Fatalf("status = %v", res.Status)
	}
	pkg := s.PackageOf(nil, res.X)
	// Check the chance constraint holds on the optimization scenarios.
	need := int(math.Ceil(0.6 * 10))
	if got := satisfiedBy(sums[0], pkg, true, -3); got < need {
		t.Fatalf("package satisfies %d/10 scenarios, want ≥ %d", got, need)
	}
	// Budget constraint.
	price, _ := rel.Det("price")
	total := 0.0
	for i, x := range pkg {
		total += price[i] * x
	}
	if total > 200+1e-6 {
		t.Fatalf("budget violated: %v", total)
	}
}

func TestCSAMoreConservativeThanSAA(t *testing.T) {
	// A solution feasible for a CSA with α=1 must satisfy ALL scenarios of
	// the summarized set.
	rel := portfolioRelation(t, 5)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 1 AND 3 AND
		SUM(gain) >= -5 WITH PROBABILITY >= 0.7`, rel)
	src := rng.NewSource(6)
	sums, _ := singletons(t, s, src, 0, 8)
	parts := scenario.PartitionIDs(8, 1, 3)
	chosen := scenario.Pick(parts[0], 1.0, scenario.Min, nil)
	sm, err := s.ConsCursor(0, src, 0).Summarize(context.Background(), chosen, scenario.Min, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := s.FormulateCSA([][]*scenario.Summary{{sm}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := milp.Solve(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Skipf("CSA infeasible on this draw (acceptable): %v", res.Status)
	}
	pkg := s.PackageOf(nil, res.X)
	if got := satisfiedBy(sums[0], pkg, true, -5); got != 8 {
		t.Fatalf("1.0-summary solution satisfies %d/8 scenarios, want all", got)
	}
}

func TestProbabilityObjectiveSAA(t *testing.T) {
	rel := portfolioRelation(t, 5)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 1 AND 3
		MAXIMIZE PROBABILITY OF SUM(gain) >= 0`, rel)
	src := rng.NewSource(7)
	sums, objSums := singletons(t, s, src, 0, 12)
	model, vm, err := s.FormulateCSA(sums, objSums)
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.ObjY) != 12 || vm.ObjDenom != 12 {
		t.Fatalf("objective indicators: %d, denom %v", len(vm.ObjY), vm.ObjDenom)
	}
	res, err := milp.Solve(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Objective = −fraction satisfied; must be in [−1, 0].
	if res.Obj < -1-1e-9 || res.Obj > 1e-9 {
		t.Fatalf("objective %v outside [-1, 0]", res.Obj)
	}
}

func TestFormulateSAAMismatchedSets(t *testing.T) {
	rel := portfolioRelation(t, 3)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(gain) >= 0 WITH PROBABILITY >= 0.9 AND COUNT(*) <= 2`, rel)
	if _, _, err := s.FormulateCSA(nil, nil); err == nil {
		t.Fatal("expected error for missing scenario summaries")
	}
}

func TestFormulateCSAMissingObjSummaries(t *testing.T) {
	rel := portfolioRelation(t, 3)
	s := buildQuery(t, `SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) <= 2
		MAXIMIZE PROBABILITY OF SUM(gain) >= 1`, rel)
	if _, _, err := s.FormulateCSA([][]*scenario.Summary{}, nil); err == nil {
		t.Fatal("expected error for missing objective summaries")
	}
}

// TestPackageOfRounds: the package is the first N entries of a solution,
// x_i being variable i, rounded; the indicators after them are not read.
func TestPackageOfRounds(t *testing.T) {
	s := &SILP{N: 3}
	pkg := s.PackageOf(nil, []float64{0.9999999, 2.0000001, 0, 1})
	if len(pkg) != 3 || pkg[0] != 1 || pkg[1] != 2 || pkg[2] != 0 {
		t.Fatalf("pkg = %v", pkg)
	}
}

// singletons summarizes scenarios first..first+m−1 one at a time: the
// scenarios of SAA_{Q,M}.
func singletons(t *testing.T, s *SILP, src rng.Source, first, m int) ([][]*scenario.Summary, []*scenario.Summary) {
	t.Helper()
	parts := make([][]int, m)
	for j := range parts {
		parts[j] = []int{first + j}
	}
	sums, objSums, err := s.SummarizeParts(context.Background(), src, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sums, objSums
}

// satisfiedBy counts how many of the scenarios a package satisfies for the
// inner constraint Σ a·x ⊙ v, one-scenario summaries standing for their
// scenario.
func satisfiedBy(scens []*scenario.Summary, x []float64, geq bool, v float64) int {
	count := 0
	for _, sc := range scens {
		score := 0.0
		for i, a := range sc.Values {
			score += a * x[i]
		}
		if (geq && score >= v) || (!geq && score <= v) {
			count++
		}
	}
	return count
}

// TestObjRangeMemoBounded: a client varying the validation seed cannot grow
// a plan: past maxObjRanges seeds the memo starts over.
func TestObjRangeMemoBounded(t *testing.T) {
	s := &SILP{}
	for seed := uint64(1); seed <= 10; seed++ {
		s.SetObjRange(seed, -float64(seed), float64(seed))
		if len(s.memo.ranges) > maxObjRanges {
			t.Fatalf("seed %d: %d ranges memoised, cap %d", seed, len(s.memo.ranges), maxObjRanges)
		}
		if lo, hi, ok := s.ObjRange(seed); !ok || lo != -float64(seed) || hi != float64(seed) {
			t.Fatalf("seed %d: range [%v, %v] memoised %t", seed, lo, hi, ok)
		}
	}
	if _, _, ok := s.ObjRange(1); ok {
		t.Fatal("the first seed's range outlived the cap")
	}
}

// TestVerdictMemoBounded: a client asking for ever new packages cannot grow a
// plan: past maxVerdicts keys the memo starts over, and storing a key it
// already holds does not.
func TestVerdictMemoBounded(t *testing.T) {
	s := &SILP{}
	key := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	for i := 0; i < 3*maxVerdicts; i++ {
		s.SetVerdict(key(i), i)
		if len(s.memo.verdicts) > maxVerdicts {
			t.Fatalf("key %d: %d verdicts memoised, cap %d", i, len(s.memo.verdicts), maxVerdicts)
		}
		if v, ok := s.Verdict(key(i)); !ok || v != i {
			t.Fatalf("key %d: verdict %v memoised %t", i, v, ok)
		}
	}
	if _, ok := s.Verdict(key(0)); ok {
		t.Fatal("the first key's verdict outlived the cap")
	}
	full := &SILP{}
	for i := 0; i < maxVerdicts; i++ {
		full.SetVerdict(key(i), i)
	}
	full.SetVerdict(key(0), 0)
	if len(full.memo.verdicts) != maxVerdicts {
		t.Fatalf("storing a held key at the cap left %d verdicts, want %d", len(full.memo.verdicts), maxVerdicts)
	}
}

// failingSource is a lazy column whose every read fails, as a truncated or
// unreadable column file does.
type failingSource struct{ n int }

func (s failingSource) Len() int { return s.n }
func (s failingSource) ReadAt([]float64, int) error {
	return errors.New("column file truncated")
}

// TestBuildUnreadableColumnErrors: the WHERE pushdown gathers every
// deterministic column of the surviving tuples, so an unreadable lazy
// column fails Build with the read error, even one the query never names.
func TestBuildUnreadableColumnErrors(t *testing.T) {
	rel := portfolioRelation(t, 6)
	if err := rel.AddDetSource("broken", failingSource{n: 6}); err != nil {
		t.Fatal(err)
	}
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM stocks WHERE vol >= 0.1 SUCH THAT
		SUM(price) <= 200 MAXIMIZE EXPECTED SUM(gain)`)
	_, err := Build(q, rel, nil)
	if err == nil || !strings.Contains(err.Error(), "column file truncated") {
		t.Fatalf("Build over an unreadable column: err = %v, want the read error", err)
	}
}
