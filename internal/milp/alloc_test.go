package milp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"spq/internal/rng"
)

// Every test of this package runs with released LP points overwritten (see
// poisonRecycled), the determinism matrix included.
func init() { poisonRecycled = true }

// TestNodeLoopAllocatesNothing is the search's allocation budget. Setting a
// Solve up allocates (presolve, scratch, the first bases and node slabs
// while the frontier widens); a node of the steady state must not. The same instance cut at N and at 2N nodes differs by N such nodes.
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
// column count. Presolve reads the model's rows into one flat row store and
// builds the reduced problem as flat arrays, so 5 rows × 20 000 columns take
// as many heap objects as 5 × 2 000 (a per-column slice or a per-row map
// would add thousands).
func TestWideSolveAllocationsFlat(t *testing.T) {
	// Each GC cycle runs the runtime's unique-map cleanup, which allocates
	// a few objects that AllocsPerRun would count as Solve's; whether a
	// cycle lands inside the measured runs depends on the heap's pacing, so
	// the collector is held off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// csaModel is the CSA root's shape: n integer tuple variables, a dense
// knapsack row, z binaries whose dense indicator rows hold only when few
// heavy tuples are taken, and Σy ≥ z, which fixes the binaries and turns
// the indicator rows into knapsacks that presolve fixes most tuples by.
func csaModel(n, z int) *Model {
	s := rng.NewStream(7)
	m := NewModel()
	m.Reserve(n+z, 2, z)
	for j := 0; j < n; j++ {
		m.AddVar(0, float64(1+s.IntN(3)), -(1 + s.Float64()), true)
	}
	dense := func(scale float64) []float64 {
		c := make([]float64, n)
		for j := range c {
			c[j] = 0.5 + s.Float64()*scale
		}
		return c
	}
	m.AddRow(nil, dense(10), -Inf, float64(n))
	ys, ones := make([]int, z), make([]float64, z)
	for k := range ys {
		ys[k], ones[k] = m.AddBinary(0), 1
		m.AddIndicatorLE(ys[k], nil, dense(40), 20)
	}
	m.AddRow(ys, ones, float64(z), Inf)
	return m
}

// TestWideSolveBytes is TestWideSolveAllocationsFlat's budget in bytes: the
// root of a CSA-shaped 6 × 20 000 model (4 indicators) allocates at most
// wideBytesPerColumn per column. The objects stay flat however the root is
// built; the bytes are what a full-size copy of the matrix adds, 60 per
// column here for a column-major problem built before presolve. The root
// took 333 bytes per column when the model was built into such a problem
// and presolve transposed it; it takes 125 since presolve reads the rows.
func TestWideSolveBytes(t *testing.T) {
	const n, wideBytesPerColumn = 20000, 150
	m := csaModel(n, 4)
	solve := func() {
		res, err := Solve(m, &Options{MaxNodes: 1})
		if err != nil || res.PresolveCols < n/2 {
			t.Fatalf("presolve removed %d columns, err=%v", res.PresolveCols, err)
		}
	}
	solve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	perColumn := float64(after.TotalAlloc-before.TotalAlloc) / runs / (n + 4)
	t.Logf("%.1f bytes per column", perColumn)
	if perColumn > wideBytesPerColumn {
		t.Fatalf("%.1f bytes per column, budget %d", perColumn, wideBytesPerColumn)
	}
}
