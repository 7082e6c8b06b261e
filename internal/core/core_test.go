package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// smallOptions keeps test runs fast.
func smallOptions(seed uint64) *Options {
	return &Options{
		Seed:        seed,
		ValidationM: 1500,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        60,
	}
}

// portfolioSILP builds a small tractable portfolio instance: n stocks with
// prices and Normal gains whose mean rises with the index.
func portfolioSILP(t *testing.T, n int, query string) *translate.SILP {
	t.Helper()
	return buildSILP(t, portfolioRel(t, n, nil), query)
}

// portfolioRel is portfolioSILP's relation; wrap, when non-nil, wraps the
// gain attribute's value generator.
func portfolioRel(t *testing.T, n int, wrap func(relation.VGFunc) relation.VGFunc) *relation.Relation {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		mu := 0.5 + float64(i%5)*0.4
		sigma := 0.5 + float64(i%3)*0.5
		gains[i] = dist.Normal{Mu: mu, Sigma: sigma}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	var gain relation.VGFunc = &relation.IndependentVG{AttrID: 1, Dists: gains}
	if wrap != nil {
		gain = wrap(gain)
	}
	if err := rel.AddStoch("gain", gain); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return rel
}

const easyQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -5 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func TestNaiveFindsFeasibleSolution(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	sol, err := Naive(silp, smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("Naive failed to find a feasible solution: %+v", sol)
	}
	if sol.Surpluses[0] < 0 {
		t.Fatalf("surplus = %v, want ≥ 0", sol.Surpluses[0])
	}
	// Budget must hold.
	price, _ := silp.Rel.Det("price")
	total := 0.0
	for i, x := range sol.X {
		total += price[i] * x
	}
	if total > 300+1e-9 {
		t.Fatalf("budget violated: %v", total)
	}
	if len(sol.Iterations) == 0 {
		t.Fatal("no iteration records")
	}
}

func TestSummarySearchFindsFeasibleSolution(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	sol, err := SummarySearch(silp, smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("SummarySearch failed: %+v", sol)
	}
	if sol.Z < 1 {
		t.Fatalf("Z = %d, want ≥ 1", sol.Z)
	}
	if sol.PackageSize() <= 0 {
		t.Fatal("empty package with a maximization objective")
	}
}

func TestSummarySearchDeterministicGivenSeed(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	a, err := SummarySearch(silp, smallOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SummarySearch(silp, smallOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible != b.Feasible || math.Abs(a.Objective-b.Objective) > 1e-12 {
		t.Fatalf("same seed produced different results: %v vs %v", a.Objective, b.Objective)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed produced different packages")
		}
	}
}

func TestSeedsChangeNaivePath(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	a, _ := Naive(silp, smallOptions(1))
	b, _ := Naive(silp, smallOptions(2))
	if a == nil || b == nil {
		t.Fatal("nil solutions")
	}
	// Different optimization scenarios may yield different packages; at
	// minimum the runs must be independent executions that both validate.
	if a.Feasible && b.Feasible {
		return
	}
	t.Fatalf("feasibility: seed1=%v seed2=%v", a.Feasible, b.Feasible)
}

func TestInfeasibleProbabilisticQuery(t *testing.T) {
	// Demand a gain of +1000 with probability 0.95 on a tiny budget:
	// unachievable, both algorithms must report infeasibility after MaxM.
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 100 AND
		SUM(gain) >= 1000 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`
	silp := portfolioSILP(t, 10, q)
	opts := smallOptions(3)
	opts.MaxM = 30
	naive, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Feasible {
		t.Fatal("Naive claims feasibility of an impossible query")
	}
	ss, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Feasible {
		t.Fatal("SummarySearch claims feasibility of an impossible query")
	}
}

func TestDeterministicallyInfeasibleQuery(t *testing.T) {
	// COUNT(*) ≥ 5 with COUNT(*) ≤ 2 is unsatisfiable before any sampling.
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) >= 5 AND COUNT(*) <= 2 AND
		SUM(gain) >= 0 WITH PROBABILITY >= 0.5`
	silp := portfolioSILP(t, 8, q)
	_, err := SummarySearch(silp, smallOptions(1))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSummarySearchDeterministicQueryShortCircuit(t *testing.T) {
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 2 AND 4 AND SUM(price) <= 200
		MINIMIZE EXPECTED SUM(gain)`
	silp := portfolioSILP(t, 10, q)
	sol, err := SummarySearch(silp, smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("deterministic query should be feasible")
	}
	if sol.M != 0 || sol.Z != 0 {
		t.Fatalf("deterministic short-circuit should not consume scenarios (M=%d Z=%d)", sol.M, sol.Z)
	}
	if got := sol.PackageSize(); got < 2 || got > 4 {
		t.Fatalf("package size %v outside COUNT bounds", got)
	}
}

func TestProbabilityObjectiveQuery(t *testing.T) {
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 1 AND 5 AND
		SUM(gain) >= -20 WITH PROBABILITY >= 0.6
		MAXIMIZE PROBABILITY OF SUM(gain) >= 1`
	silp := portfolioSILP(t, 12, q)
	opts := smallOptions(4)
	opts.FixedZ = 2
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("prob-objective query infeasible: %+v", sol)
	}
	if sol.Objective < 0 || sol.Objective > 1 {
		t.Fatalf("probability objective estimate %v outside [0,1]", sol.Objective)
	}
	if sol.PackageSize() < 1 {
		t.Fatal("package empty despite COUNT ≥ 1")
	}
}

func TestValidationSurplusMatchesKnownProbability(t *testing.T) {
	// One tuple with Gain ~ Normal(0, 1): Pr(gain ≥ 0) = 0.5 exactly.
	rel := relation.New("r", 1)
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: []dist.Dist{dist.Normal{Mu: 0, Sigma: 1}}}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(1), 100)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM r SUCH THAT
		COUNT(*) <= 2 AND SUM(gain) >= 0 WITH PROBABILITY >= 0.4`)
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions(1)
	opts.ValidationM = 20000
	r := newRunner(context.Background(), silp, opts)
	val, err := r.validate([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// surplus = Pr(gain ≥ 0) − 0.4 ≈ 0.1.
	if math.Abs(val.Surpluses[0]-0.1) > 0.02 {
		t.Fatalf("surplus = %v, want ≈ 0.1", val.Surpluses[0])
	}
	if !val.Feasible {
		t.Fatal("should be feasible")
	}
}

func TestValidationEmptyPackage(t *testing.T) {
	silp := portfolioSILP(t, 5, easyQuery)
	r := newRunner(context.Background(), silp, smallOptions(1))
	val, err := r.validate(make([]float64, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Empty package: score 0 ≥ −5 holds in every scenario.
	if !val.Feasible || val.Surpluses[0] < 0.19 {
		t.Fatalf("empty package validation: %+v", val)
	}
	if val.Objective != 0 {
		t.Fatalf("objective of empty package = %v", val.Objective)
	}
}

func TestGuessAlphaFirstMove(t *testing.T) {
	// Single infeasible observation at α=0 with deficit 0.3.
	a := guessAlpha([]alphaObs{{alpha: 0, surplus: -0.3}}, 0.9, 0.1)
	if a <= 0 || a > 1 {
		t.Fatalf("first guess %v outside (0, 1]", a)
	}
	// Grid snapping: must be a multiple of 0.1.
	if r := math.Mod(a+1e-9, 0.1); r > 2e-9 && r < 0.1-2e-9 {
		t.Fatalf("guess %v not grid aligned", a)
	}
}

func TestGuessAlphaBracketsZero(t *testing.T) {
	// Observations: infeasible at 0 and 0.2, feasible at 0.8 → guess in
	// (0.2, 0.8].
	hist := []alphaObs{
		{alpha: 0, surplus: -0.4},
		{alpha: 0.2, surplus: -0.1},
		{alpha: 0.8, surplus: 0.15},
	}
	a := guessAlpha(hist, 0.9, 0.1)
	if a <= 0.2 || a > 0.8 {
		t.Fatalf("guess %v outside bracket (0.2, 0.8]", a)
	}
}

func TestGuessAlphaAllFeasibleDecreases(t *testing.T) {
	hist := []alphaObs{
		{alpha: 0.6, surplus: 0.2},
		{alpha: 0.4, surplus: 0.1},
	}
	a := guessAlpha(hist, 0.9, 0.1)
	if a >= 0.4 {
		t.Fatalf("guess %v should decrease below smallest feasible 0.4", a)
	}
	if a < 0.1 {
		t.Fatalf("guess %v below grid floor", a)
	}
}

func TestGuessAlphaAvoidsKnownInfeasible(t *testing.T) {
	hist := []alphaObs{
		{alpha: 0, surplus: -0.5},
		{alpha: 0.3, surplus: -0.2},
		{alpha: 0.5, surplus: -0.05},
		{alpha: 1.0, surplus: 0.3},
	}
	a := guessAlpha(hist, 0.9, 0.1)
	if a <= 0.5 {
		t.Fatalf("guess %v must exceed the largest infeasible α 0.5", a)
	}
}

func TestSnapAlphaEdges(t *testing.T) {
	if got := snapAlpha(0.05, 0.1, math.Inf(-1), math.Inf(1)); got != 0.1 {
		t.Fatalf("snap(0.05) = %v, want 0.1 (grid floor)", got)
	}
	if got := snapAlpha(5, 0.1, math.Inf(-1), math.Inf(1)); got != 1 {
		t.Fatalf("snap(5) = %v, want clamp to 1", got)
	}
	// Exactly on a known-infeasible value: bump one grid step.
	if got := snapAlpha(0.3, 0.1, 0.3, math.Inf(1)); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("snap onto infeasible = %v, want 0.4", got)
	}
}

func TestPackageSizeBounds(t *testing.T) {
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) BETWEEN 3 AND 8 AND
		SUM(gain) >= 0 WITH PROBABILITY >= 0.5`
	silp := portfolioSILP(t, 10, q)
	lo, hi := packageSizeBounds(silp)
	if lo != 3 || hi != 8 {
		t.Fatalf("size bounds = [%v, %v], want [3, 8]", lo, hi)
	}
}

func TestPackageSizeBoundsDefault(t *testing.T) {
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 100 AND SUM(gain) >= 0 WITH PROBABILITY >= 0.5`
	silp := portfolioSILP(t, 4, q)
	lo, hi := packageSizeBounds(silp)
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	wantHi := 0.0
	for _, h := range silp.VarHi {
		wantHi += h
	}
	if hi != wantHi {
		t.Fatalf("hi = %v, want Σ VarHi = %v", hi, wantHi)
	}
}

func TestEpsUpperMaximization(t *testing.T) {
	silp := portfolioSILP(t, 10, easyQuery)
	r := newRunner(context.Background(), silp, smallOptions(1))
	// ω̄ from probing; any positive objective yields finite ε.
	eps, err := r.epsUpper(r.ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(eps, 1) || eps < 0 {
		t.Fatalf("epsUpper = %v, want finite nonnegative", eps)
	}
	// A larger objective (closer to the bound) has smaller ε.
	if eps10, _ := r.epsUpper(r.ctx, 10); eps10 >= eps {
		t.Fatalf("epsUpper should shrink as the objective approaches the bound")
	}
}

func TestEpsUpperProbabilityObjectiveBounds(t *testing.T) {
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) <= 3
		MAXIMIZE PROBABILITY OF SUM(gain) >= 0`
	silp := portfolioSILP(t, 6, q)
	r := newRunner(context.Background(), silp, smallOptions(1))
	lo, hi, err := r.omegaBounds(r.ctx)
	if err != nil || lo != 0 || hi != 1 {
		t.Fatalf("probability objective bounds = [%v, %v], want [0, 1]", lo, hi)
	}
	if eps, _ := r.epsUpper(r.ctx, 0.5); math.Abs(eps-1) > 1e-9 {
		t.Fatalf("epsUpper(0.5) = %v, want (1/0.5)−1 = 1", eps)
	}
}

func TestCounteractingConstraintTightensLowerBound(t *testing.T) {
	// Minimization with counteracting constraint Pr(Σ ≥ v) ≥ p, v ≥ 0,
	// values ≥ 0 (Pareto support): ω̲ ≥ p·v (§5.4).
	rel := relation.New("g", 8)
	ds := make([]dist.Dist, 8)
	for i := range ds {
		ds[i] = dist.Pareto{Sigma: 1, Alpha: 3}
	}
	if err := rel.AddStoch("flux", &relation.IndependentVG{AttrID: 1, Dists: ds}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(3), 300)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM g SUCH THAT
		COUNT(*) BETWEEN 2 AND 5 AND
		SUM(flux) >= 6 WITH PROBABILITY >= 0.9
		MINIMIZE EXPECTED SUM(flux)`)
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(context.Background(), silp, smallOptions(1))
	lo, _, err := r.omegaBounds(r.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0.9*6-1e-9 {
		t.Fatalf("lower bound %v, want ≥ p·v = 5.4", lo)
	}
}

func TestBetterOrdering(t *testing.T) {
	silp := portfolioSILP(t, 5, easyQuery) // maximization
	feasLow := &Solution{X: []float64{1}, Feasible: true, Objective: 1}
	feasHigh := &Solution{X: []float64{1}, Feasible: true, Objective: 2}
	infeas := &Solution{X: []float64{1}, Feasible: false, Objective: 99}
	if !better(silp, feasHigh, feasLow) {
		t.Fatal("higher objective should win under maximization")
	}
	if better(silp, feasLow, feasHigh) {
		t.Fatal("lower objective should lose")
	}
	if !better(silp, feasLow, infeas) {
		t.Fatal("feasible should beat infeasible")
	}
	if better(silp, nil, feasLow) {
		t.Fatal("nil never wins")
	}
	if !better(silp, infeas, nil) {
		t.Fatal("anything beats nil")
	}
}

func TestSolutionKeyDistinguishes(t *testing.T) {
	a := solutionKey([]float64{1, 0, 2}, []float64{0.1})
	b := solutionKey([]float64{1, 0, 2}, []float64{0.2})
	c := solutionKey([]float64{1, 1, 2}, []float64{0.1})
	if a == b || a == c || b == c {
		t.Fatal("solution keys collide")
	}
	if a != solutionKey([]float64{1, 0, 2}, []float64{0.1}) {
		t.Fatal("solution key not deterministic")
	}
}

func TestAccelerationAblation(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	on := smallOptions(9)
	off := smallOptions(9)
	off.DisableAcceleration = true
	solOn, err := SummarySearch(silp, on)
	if err != nil {
		t.Fatal(err)
	}
	solOff, err := SummarySearch(silp, off)
	if err != nil {
		t.Fatal(err)
	}
	if !solOn.Feasible || !solOff.Feasible {
		t.Fatalf("feasibility: accel=%v noaccel=%v", solOn.Feasible, solOff.Feasible)
	}
}

func TestFixedZRespected(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	opts := smallOptions(2)
	opts.FixedZ = 3
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible && sol.Z != 3 {
		t.Fatalf("Z = %d, want pinned 3", sol.Z)
	}
}

func TestSummarySearchUsesFewerScenariosThanNaive(t *testing.T) {
	// The paper's headline behaviour: SummarySearch reaches feasibility
	// with a small M, Naïve needs more (or equal). We assert the weaker,
	// deterministic property that SummarySearch reaches feasibility within
	// the same budget and never uses more scenarios.
	q := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 300 AND
		SUM(gain) >= 0 WITH PROBABILITY >= 0.85
		MAXIMIZE EXPECTED SUM(gain)`
	silp := portfolioSILP(t, 15, q)
	opts := smallOptions(11)
	ss, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Feasible {
		t.Fatalf("SummarySearch infeasible: %+v", ss.Surpluses)
	}
	if naive.Feasible && ss.M > naive.M {
		t.Fatalf("SummarySearch used more scenarios (%d) than Naive (%d)", ss.M, naive.M)
	}
}

// TestCSASkipsIdenticalFormulation: when a new α picks the scenarios the
// previous one did, CSA-Solve reuses the previous solve instead of building
// and solving the same DILP again. A run that cannot stop early (ε = 1e-9,
// M pinned at 10) makes most of its 250 iterations such repeats. A reused
// iteration records a formulation but no solver work, is not counted as a
// MILP solve, and hands the next iteration the package it was given.
func TestCSASkipsIdenticalFormulation(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	opts := smallOptions(1)
	opts.Epsilon = 1e-9
	opts.MaxM = 10
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	its := sol.Iterations
	solved, reused := 0, 0
	for i, it := range its {
		switch {
		case it.Coefficients == 0:
		case it.Nodes > 0:
			solved++
		default:
			reused++
			if i+1 < len(its) && (its[i+1].Objective != it.Objective || its[i+1].Surpluses[0] != it.Surpluses[0]) {
				t.Fatalf("iteration %d reused a solve but the next one validated another package", i)
			}
		}
	}
	if reused == 0 || sol.MILPSolves != solved+1 { // +1: the unconstrained solve
		t.Fatalf("%d iterations: %d solved, %d reused, %d MILP solves counted", len(its), solved, reused, sol.MILPSolves)
	}
}
