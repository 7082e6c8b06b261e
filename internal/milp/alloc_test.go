package milp

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
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
// hence warm starts well below nodes. Re-pinned again when simple rounding
// of fractional nodes replaced rounding the root to nearest (1623 / 2277 /
// 1727 before): rounded points give the corpus's searches early
// incumbents; the knapsack line did not move.
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
	knap := []*Model{knapsackModel(rng.NewStream(5), 26, 13)} // BenchmarkSolve's
	if it, nd, wm := total(knap, nil); it != 30 || nd != 13 || wm != 12 {
		t.Fatalf("knapsack: %d LP iters / %d nodes / %d warm starts, want 30 / 13 / 12", it, nd, wm)
	}
	if it, nd, wm := total(propertyCorpus(), nil); it != 319 || nd != 269 || wm != 200 {
		t.Fatalf("property corpus: %d LP iters / %d nodes / %d warm starts, want 319 / 269 / 200", it, nd, wm)
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
// root of a CSA-shaped 6 × 20 000 model (4 indicators), solved again on the
// arena its first solve left, allocates at most wideBytesPerColumn per
// column: its answer, 8 bytes per column, and a few small objects (8.2 in
// all). Any buffer the solve's set-up makes afresh adds at least a byte per
// column. The root took 333 bytes per column when the model was built into
// a column-major problem and presolve transposed it, 125 once presolve read
// the rows (budget 150), and takes 8.2 since a solve's working set is
// pooled.
func TestWideSolveBytes(t *testing.T) {
	const n, wideBytesPerColumn = 20000, 9
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

// TestSolveArenaReuseBitIdentical: a solve on an arena that other solves
// used, grew to other shapes and released (poisoned, in tests) answers bit
// for bit as a solve on fresh memory. Four goroutines each run the whole
// corpus — CSA roots of 2 000 and 20 000 columns, one with pinned
// columns, the benchmark knapsack whole and cut at a node cap, the property
// corpus — in an order of their own, against the same corpus solved one at
// a time on arenas of its own.
func TestSolveArenaReuseBitIdentical(t *testing.T) {
	type job struct {
		m *Model
		o *Options
	}
	knap := knapsackModel(rng.NewStream(5), 26, 13)
	pinned := csaModel(2000, 4)
	for j := 0; j < 2000; j += 3 {
		pinned.SetPinned(j, true)
	}
	jobs := []job{
		{csaModel(2000, 4), nil},
		{pinned, nil},
		{csaModel(20000, 4), nil},
		{knap, nil},
		{knap, &Options{MaxNodes: 5}},
	}
	for _, m := range propertyCorpus() {
		jobs = append(jobs, job{m, nil})
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		res, err := new(arena).solve(j.m, j.o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutine g walks the corpus from its own offset with its own
			// stride, so neighbouring solves differ in shape from goroutine to
			// goroutine.
			stride := []int{1, 3, 5, 7}[g]
			for k := range jobs {
				i := (g*len(jobs)/goroutines + k*stride) % len(jobs)
				res, err := Solve(jobs[i].m, jobs[i].o)
				if err == nil {
					err = sameAnswer(res, want[i])
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d, job %d: %w", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameAnswer compares two solves' Results: status, stop, objective, bound
// and point bit for bit, work, coefficient count and rounds.
func sameAnswer(got, want *Result) error {
	switch {
	case got.Status != want.Status || got.Stop != want.Stop:
		return fmt.Errorf("status %v / stop %v, fresh memory %v / %v", got.Status, got.Stop, want.Status, want.Stop)
	case math.Float64bits(got.Obj) != math.Float64bits(want.Obj) || math.Float64bits(got.Bound) != math.Float64bits(want.Bound):
		return fmt.Errorf("objective %v / bound %v, fresh memory %v / %v", got.Obj, got.Bound, want.Obj, want.Bound)
	case got.SolveWork != want.SolveWork:
		return fmt.Errorf("work %+v, fresh memory %+v", got.SolveWork, want.SolveWork)
	case got.Coefficients != want.Coefficients || got.Rounds != want.Rounds:
		return fmt.Errorf("%d coefficients / %d rounds, fresh memory %d / %d", got.Coefficients, got.Rounds, want.Coefficients, want.Rounds)
	case (got.X == nil) != (want.X == nil) || len(got.X) != len(want.X):
		return fmt.Errorf("point of %d entries, fresh memory %d", len(got.X), len(want.X))
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Errorf("x[%d] = %v, fresh memory %v", j, got.X[j], want.X[j])
		}
	}
	return nil
}
