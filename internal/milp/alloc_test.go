package milp

import (
	"testing"

	"spq/internal/rng"
)

// Every test of this package runs with released LP points overwritten (see
// poisonRecycled), the determinism matrix included.
func init() { poisonRecycled = true }

// TestNodeLoopAllocatesNothing is the search's allocation budget. Setting a
// Solve up allocates (model build, presolve, scratch, the first bases and
// node slabs while the frontier widens); a node of the steady state must
// not. The same instance cut at N and at 2N nodes differs by N such nodes.
// The instance is 30 unit-profit binaries of weight 2 under a capacity of
// 31: every LP optimum is worth 15.5 against an integer 15 and every reduced
// cost is zero, so reduced-cost fixing cannot close the tree before the node
// budget does (a random knapsack of this size now closes in a few thousand
// nodes).
func TestNodeLoopAllocatesNothing(t *testing.T) {
	const n = 2000
	m := NewModel()
	idxs := make([]int, 30)
	w := make([]float64, len(idxs))
	for j := range idxs {
		idxs[j], w[j] = m.AddBinary(-1), 2
	}
	m.AddRow(idxs, w, -Inf, 31)
	allocs := func(maxNodes int) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := Solve(m, &Options{MaxNodes: maxNodes})
			if err != nil || res.Nodes != maxNodes {
				t.Fatalf("MaxNodes=%d: explored %d nodes, err=%v", maxNodes, res.Nodes, err)
			}
		})
	}
	base, double := allocs(n), allocs(2*n)
	if perNode := (double - base) / n; perNode >= 0.1 {
		t.Fatalf("%.3f allocations per extra node (%v at %d nodes, %v at %d), want < 0.1",
			perNode, base, n, double, 2*n)
	}
}

// TestGoldenKernelCounters pins the solver's deterministic work counters on
// the two benchmark instance sets. They are a function of node order, pivot
// choice and warm-start coverage, so a change that only moves memory around
// must leave them exactly here; a recycled basis read after its release
// shows up as a lost warm start. Re-pinned when reduced-cost fixing landed
// (176 / 105 / 104 and 2327 / 2357 / 2318 before): fixing shrinks the
// knapsack's tree from 105 nodes to 13, and in the corpus a node whose branch
// interval the root box has emptied counts as a node without an LP solve,
// hence warm starts well below nodes.
func TestGoldenKernelCounters(t *testing.T) {
	total := func(models []*Model, o *Options) (lpIters, nodes, warm int) {
		for _, m := range models {
			res, err := Solve(m, o)
			if err != nil {
				t.Fatal(err)
			}
			lpIters += res.LPIters
			nodes += res.Nodes
			warm += res.WarmStarts
		}
		return
	}
	knap := []*Model{knapsackModel(rng.NewStream(5), 26, 13)} // BenchmarkSolveParallel's
	for _, w := range workerMatrix {
		if it, nd, wm := total(knap, &Options{Parallelism: w}); it != 30 || nd != 13 || wm != 12 {
			t.Fatalf("knapsack, %d workers: %d LP iters / %d nodes / %d warm starts, want 30 / 13 / 12", w, it, nd, wm)
		}
	}
	if it, nd, wm := total(propertyCorpus(), nil); it != 1623 || nd != 2277 || wm != 1727 {
		t.Fatalf("property corpus: %d LP iters / %d nodes / %d warm starts, want 1623 / 2277 / 1727", it, nd, wm)
	}
}

// TestRootBasisSurvivesLaterSolves: Result.RootBasis crosses the Solve
// boundary (the engine keeps it to warm-start a re-solve after a delta), so
// it must be the caller's own copy, out of reach of the search's recycling
// and of any later Solve on the same model.
func TestRootBasisSurvivesLaterSolves(t *testing.T) {
	m := knapsackModel(rng.NewStream(5), 26, 13)
	first, err := Solve(m, &Options{WantRootBasis: true})
	if err != nil || first.RootBasis == nil {
		t.Fatalf("first solve: %+v err=%v", first, err)
	}
	cold, err := Solve(m, &Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Seeded with its own optimal basis the root re-solve needs no pivot.
	rootIters := func() int {
		res, err := Solve(m, &Options{RootBasis: first.RootBasis, WantRootBasis: true, MaxNodes: 1})
		if err != nil || res.WarmStarts != 1 || res.RootBasis == first.RootBasis {
			t.Fatalf("re-solve from RootBasis: %+v err=%v", res, err)
		}
		return res.LPIters
	}
	if cold.LPIters == 0 || rootIters() != 0 {
		t.Fatalf("root LP: %d iterations cold, %d from RootBasis, want > 0 and 0", cold.LPIters, rootIters())
	}
	for _, w := range workerMatrix {
		if _, err := Solve(m, &Options{Parallelism: w, RootBasis: first.RootBasis}); err != nil {
			t.Fatal(err)
		}
	}
	if rootIters() != 0 {
		t.Fatal("RootBasis changed under later solves of the same model")
	}
}

// wideModel is the scan-shaped MILP: n binaries under five dense knapsack
// rows, as many columns as tuples and only a few rows.
func wideModel(n int) *Model {
	s := rng.NewStream(3)
	m := NewModel()
	idxs := make([]int, n)
	for j := range idxs {
		idxs[j] = m.AddBinary(-(1 + s.Float64()))
	}
	for r := 0; r < 5; r++ {
		w := make([]float64, n)
		for j := range w {
			w[j] = 1 + s.Float64()*9
		}
		m.AddRow(idxs, w, -Inf, 30)
	}
	return m
}

// TestWideSolveAllocationsFlat: what a Solve allocates does not grow with the
// column count. The model becomes one column-major matrix in two passes and
// presolve transposes and filters it into flat arrays, so 5 rows × 20 000
// columns take as many heap objects as 5 × 2 000 (a per-column slice or a
// per-row map would add thousands).
func TestWideSolveAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		m := wideModel(n)
		return testing.AllocsPerRun(2, func() {
			if _, err := Solve(m, &Options{MaxNodes: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := allocs(2000), allocs(20000)
	t.Logf("allocs/op: %v at 2 000 columns, %v at 20 000", narrow, wide)
	if wide > narrow+4 {
		t.Fatalf("%v allocations at 20 000 columns against %v at 2 000: allocation grows with the column count", wide, narrow)
	}
}
