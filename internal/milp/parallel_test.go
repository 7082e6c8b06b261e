package milp

import (
	"fmt"
	"math"
	"testing"
	"time"

	"spq/internal/rng"
)

// workerMatrix is the determinism corpus's worker counts: sequential, a
// small pool, and more workers than a round typically holds.
var workerMatrix = []int{1, 2, 8}

// solveWith solves the model with the given worker count and fails the test
// on error.
func solveWith(t *testing.T, m *Model, workers int, base *Options) *Result {
	t.Helper()
	o := Options{}
	if base != nil {
		o = *base
	}
	o.Parallelism = workers
	res, err := Solve(m, &o)
	if err != nil {
		t.Fatalf("Solve(workers=%d): %v", workers, err)
	}
	return res
}

// assertBitIdentical requires the full determinism contract: Status, Obj,
// Bound, Nodes, the LP kernel's work counters and every element of X equal
// exactly (==, not within tolerance) across worker counts.
func assertBitIdentical(t *testing.T, tag string, base, got *Result, workers int) {
	t.Helper()
	if got.Status != base.Status {
		t.Fatalf("%s: workers=%d status %v != sequential %v", tag, workers, got.Status, base.Status)
	}
	if got.Obj != base.Obj {
		t.Fatalf("%s: workers=%d obj %v != sequential %v", tag, workers, got.Obj, base.Obj)
	}
	if got.Bound != base.Bound {
		t.Fatalf("%s: workers=%d bound %v != sequential %v", tag, workers, got.Bound, base.Bound)
	}
	if got.Nodes != base.Nodes {
		t.Fatalf("%s: workers=%d nodes %d != sequential %d", tag, workers, got.Nodes, base.Nodes)
	}
	// The kernel counters too: a node solved from the wrong (recycled) basis,
	// or from none, may still reach the same optimum, but not by the same
	// pivots.
	if got.LPIters != base.LPIters || got.WarmStarts != base.WarmStarts || got.BoundFlips != base.BoundFlips {
		t.Fatalf("%s: workers=%d LP iters / warm starts / bound flips %d / %d / %d != sequential %d / %d / %d", tag, workers,
			got.LPIters, got.WarmStarts, got.BoundFlips, base.LPIters, base.WarmStarts, base.BoundFlips)
	}
	if (got.X == nil) != (base.X == nil) || len(got.X) != len(base.X) {
		t.Fatalf("%s: workers=%d X shape diverged", tag, workers)
	}
	for j := range base.X {
		if got.X[j] != base.X[j] {
			t.Fatalf("%s: workers=%d X[%d] = %v != sequential %v", tag, workers, j, got.X[j], base.X[j])
		}
	}
}

// randomIPModel mirrors the TestRandomIPAgainstBruteForce generator: small
// integer programs with range rows.
func randomIPModel(s *rng.Stream) *Model {
	n := 2 + s.IntN(3)
	m := NewModel()
	idxs := make([]int, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 2, math.Round((s.Float64()*6-3)*10)/10, true)
	}
	nrows := 1 + s.IntN(2)
	for r := 0; r < nrows; r++ {
		coefs := make([]float64, n)
		for j := range coefs {
			coefs[j] = math.Round((s.Float64()*4-2)*10) / 10
		}
		if s.IntN(2) == 0 {
			m.AddRow(idxs, coefs, math.Inf(-1), s.Float64()*4)
		} else {
			m.AddRow(idxs, coefs, -s.Float64()*2, math.Inf(1))
		}
	}
	return m
}

// randomIndicatorModel mirrors the big-M property-test generator: indicator
// constraints under a counting row, the SAA chance-constraint shape.
func randomIndicatorModel(s *rng.Stream) *Model {
	const n, scenarios = 3, 6
	need := 1 + s.IntN(scenarios)
	m := NewModel()
	xs := make([]int, n)
	for j := 0; j < n; j++ {
		xs[j] = m.AddVar(0, 2, -(s.Float64() + 0.1), true)
	}
	ys := make([]int, scenarios)
	ones := make([]float64, scenarios)
	for k := 0; k < scenarios; k++ {
		coefs := make([]float64, n)
		for j := range coefs {
			coefs[j] = s.Float64()*4 - 2
		}
		ys[k] = m.AddBinary(0)
		m.AddIndicatorGE(ys[k], xs, coefs, 0.5)
		ones[k] = 1
	}
	m.AddRow(ys, ones, float64(need), Inf)
	return m
}

// knapsackModel is a branching-heavy complete-search instance.
func knapsackModel(s *rng.Stream, n int, cap float64) *Model {
	m := NewModel()
	idxs := make([]int, n)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 1, -(1 + s.Float64()), true)
		w[j] = 1 + s.Float64()*3
	}
	m.AddRow(idxs, w, -Inf, cap)
	return m
}

// TestParallelDeterminismMatrix is the PR's determinism acceptance test: the
// property-test corpus solved with worker counts {1, 2, 8} must be
// bit-identical — Status, Obj, Bound, Nodes, and X compared with == — for
// every instance. CI additionally runs this under -cpu 1,2,4 -race.
func TestParallelDeterminismMatrix(t *testing.T) {
	type instance struct {
		tag   string
		model *Model
		opts  *Options
	}
	var corpus []instance

	s := rng.NewStream(11)
	for trial := 0; trial < 25; trial++ {
		corpus = append(corpus, instance{tag: fmt.Sprintf("ip%d", trial), model: randomIPModel(s)})
	}
	s = rng.NewStream(8)
	for trial := 0; trial < 15; trial++ {
		corpus = append(corpus, instance{tag: fmt.Sprintf("ind%d", trial), model: randomIndicatorModel(s)})
	}
	s = rng.NewStream(5)
	corpus = append(corpus,
		instance{tag: "knap20", model: knapsackModel(s, 20, 10)},
		// RelGap pruning must be deterministic too: it is evaluated against
		// the round-start snapshot, never the live incumbent.
		instance{tag: "knap18gap", model: knapsackModel(s, 18, 9), opts: &Options{RelGap: 0.05}},
		// A node budget binding mid-search is deterministic as long as no
		// wall-clock limit is involved: rounds are cut at exact node counts.
		instance{tag: "knap20nodes", model: knapsackModel(s, 20, 11), opts: &Options{MaxNodes: 50}},
	)

	for _, inst := range corpus {
		base := solveWith(t, inst.model, 1, inst.opts)
		for _, w := range workerMatrix[1:] {
			got := solveWith(t, inst.model, w, inst.opts)
			assertBitIdentical(t, inst.tag, base, got, w)
		}
		// Negative parallelism (one worker per CPU) is part of the contract.
		got := solveWith(t, inst.model, -1, inst.opts)
		assertBitIdentical(t, inst.tag, base, got, -1)
	}
}

// TestDeepTreeNodePool is the recursion-depth regression test: a chain
// instance whose search tree is thousands of levels deep. The old recursive
// dive grew the goroutine stack by one frame per fixed binary; the explicit
// node pool keeps ancestry on the heap. Run with a worker pool under -race
// (the CI milp-race job) this also exercises concurrent node processing on a
// deep frontier.
func TestDeepTreeNodePool(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1500
	}
	m := NewModel()
	idxs := make([]int, n)
	ones := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddBinary(-1) // maximize Σx …
		ones[j] = 1
	}
	// … subject to Σx ≤ n − 0.5: integer optimum n−1. The half-integral
	// right-hand side keeps one binary fractional in every relaxation, and
	// the slack per variable is too loose for root presolve's bound
	// tightening to collapse the instance (implied x_j ≤ n − 0.5 is weaker
	// than the binary box), so the search must dive a chain that fixes one
	// variable per level.
	m.AddRow(idxs, ones, -Inf, float64(n)-0.5)

	res, err := Solve(m, &Options{Parallelism: 4, MaxNodes: 4*n + 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if res.Obj != -float64(n-1) {
		t.Fatalf("obj = %v, want %v", res.Obj, -float64(n-1))
	}
	sum := 0.0
	for _, x := range res.X {
		sum += x
	}
	if sum != float64(n-1) {
		t.Fatalf("Σx = %v, want %d", sum, n-1)
	}
	if res.Nodes < n {
		t.Fatalf("explored %d nodes; expected a chain of depth ≥ %d", res.Nodes, n)
	}
}

// TestKernelCountersPopulated asserts the LP-kernel counters surface through
// Result: a branching-heavy solve must warm-start most of its node LPs from
// parent bases (this is the CI lp-kernel job's hit-rate > 0 assertion), and a
// model with redundant rows and fixed columns must report root-presolve
// reductions. Both are deterministic, so exact reproducibility is asserted too.
func TestKernelCountersPopulated(t *testing.T) {
	s := rng.NewStream(5)
	knap := knapsackModel(s, 20, 10)
	res, err := Solve(knap, &Options{Parallelism: 1})
	if err != nil || res.Status != StatusOptimal {
		t.Fatalf("knapsack: %+v err=%v", res, err)
	}
	if res.Nodes > 1 && res.WarmStarts <= 0 {
		t.Fatalf("explored %d nodes but warm-started %d node LPs; want > 0", res.Nodes, res.WarmStarts)
	}
	if res.WarmStarts > res.LPIters+res.Nodes {
		t.Fatalf("WarmStarts = %d implausible vs %d nodes", res.WarmStarts, res.Nodes)
	}
	rep, err := Solve(knap, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarts != res.WarmStarts || rep.DegenPivots != res.DegenPivots {
		t.Fatalf("kernel counters not deterministic: (%d,%d) vs (%d,%d)",
			rep.WarmStarts, rep.DegenPivots, res.WarmStarts, res.DegenPivots)
	}

	m := NewModel()
	a := m.AddVar(2, 2, 3, false) // fixed: presolve substitutes it
	b := m.AddBinary(-1)
	m.AddRow([]int{a, b}, []float64{1, 1}, -Inf, 100) // redundant vs boxes
	m.AddRow([]int{a, b}, []float64{1, 1}, -Inf, 2.5)
	pres, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pres.PresolveRows < 1 {
		t.Fatalf("PresolveRows = %d, want ≥ 1 (redundant row)", pres.PresolveRows)
	}
	if pres.PresolveCols < 1 {
		t.Fatalf("PresolveCols = %d, want ≥ 1 (fixed column)", pres.PresolveCols)
	}
	if pres.Status != StatusOptimal || pres.X[a] != 2 {
		t.Fatalf("postsolve broke the fixed var: %+v", pres)
	}
}

// TestCancelDuringRootLP: cancelling while the root LP relaxation is still
// being solved must abort within iterations, not wait for the solve — the
// bug this PR fixes. The model's root LP alone takes hundreds of
// milliseconds.
func TestCancelDuringRootLP(t *testing.T) {
	s := rng.NewStream(17)
	const mrows, n = 150, 300
	m := NewModel()
	idxs := make([]int, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 10, s.Float64()*2-1, false)
	}
	for i := 0; i < mrows; i++ {
		coefs := make([]float64, n)
		for j := range coefs {
			coefs[j] = s.Float64()*2 - 1
		}
		m.AddRow(idxs, coefs, -5+s.Float64(), 5+s.Float64())
	}

	cancel := make(chan struct{})
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := Solve(m, &Options{Cancel: cancel})
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	delay := 50 * time.Millisecond
	if raceEnabled {
		delay = 500 * time.Millisecond
	}
	time.Sleep(delay)
	cancelled := time.Now()
	close(cancel)
	select {
	case err := <-errc:
		t.Fatal(err)
	case res := <-done:
		latency := time.Since(cancelled)
		bound := 100 * time.Millisecond
		if raceEnabled {
			bound = 2 * time.Second
		}
		if latency > bound {
			t.Fatalf("cancellation latency %v (bound %v)", latency, bound)
		}
		if res.Status != StatusLimit {
			t.Fatalf("status = %v, want limit (cancelled before any incumbent)", res.Status)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled solve never returned")
	}
}

// reportKernelMetrics surfaces the LP-kernel work counters as per-op bench
// metrics, so kernel wins (fewer simplex iterations, fewer nodes, warm-start
// coverage) show up in CI bench smoke output rather than only in wall-clock.
func reportKernelMetrics(b *testing.B, lpIters, nodes, warm int64) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(lpIters)/n, "lp_iters/op")
	b.ReportMetric(float64(nodes)/n, "nodes/op")
	b.ReportMetric(float64(warm)/n, "warm_hits/op")
}

// BenchmarkSolveParallel measures the parallel branch-and-bound on a
// branching-heavy knapsack at worker counts 1/2/4. On a single-core runner
// the interesting wall-clock number is parity (rounds and scratch reuse
// ≈ free); the speedup row belongs on a multicore host (see DESIGN.md). The
// lp_iters/nodes/warm_hits metrics are host-independent: they are
// deterministic kernel-work counters.
func BenchmarkSolveParallel(b *testing.B) {
	s := rng.NewStream(5)
	model := knapsackModel(s, 26, 13)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var lpIters, nodes, warm int64
			for i := 0; i < b.N; i++ {
				res, err := Solve(model, &Options{Parallelism: w})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != StatusOptimal {
					b.Fatalf("status = %v", res.Status)
				}
				lpIters += int64(res.LPIters)
				nodes += int64(res.Nodes)
				warm += int64(res.WarmStarts)
			}
			reportKernelMetrics(b, lpIters, nodes, warm)
		})
	}
}

// propertyCorpus rebuilds the determinism corpus's model set (random IPs,
// indicator models, knapsacks) for benchmarking. Kept in sync with
// TestParallelDeterminismMatrix so bench rows describe the same instances the
// correctness suite runs.
func propertyCorpus() []*Model {
	var models []*Model
	s := rng.NewStream(11)
	for trial := 0; trial < 25; trial++ {
		models = append(models, randomIPModel(s))
	}
	s = rng.NewStream(8)
	for trial := 0; trial < 15; trial++ {
		models = append(models, randomIndicatorModel(s))
	}
	s = rng.NewStream(5)
	models = append(models, knapsackModel(s, 20, 10), knapsackModel(s, 18, 9))
	return models
}

// BenchmarkPropertyCorpus solves the whole property-test corpus once per op
// and reports total simplex iterations, branch-and-bound nodes, and
// warm-start hits per op. This is the acceptance benchmark for LP-kernel
// changes: the DESIGN.md "LP kernel" table records its lp_iters/op before and
// after. One op = 42 MILP solves.
func BenchmarkPropertyCorpus(b *testing.B) {
	models := propertyCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	var lpIters, nodes, warm int64
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			res, err := Solve(m, nil)
			if err != nil {
				b.Fatal(err)
			}
			lpIters += int64(res.LPIters)
			nodes += int64(res.Nodes)
			warm += int64(res.WarmStarts)
		}
	}
	reportKernelMetrics(b, lpIters, nodes, warm)
}
